package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions.{count, lit, when}
import repro.encoder.TextEncoder
import repro.index._
import repro.pq.ProductQuantizer
import repro.rerank.{CrossModalRerank, RerankResult}
import repro.video.{DatasetConfig, FrameRec, Keyframes, PlantSpec, SynthVideo}
import repro.vit.{PatchRec, VideoSummary}

/** Operation counts of the offline build (cost-model inputs). */
final case class BuildCounts(
    rawFrames: Long,
    keyFrames: Long,
    entries: Long,
    kmeansIters: Int,
    storageBytes: Long)

/** A built LOVO instance over one dataset: raw frames (the "video") and
  * the vector index, whose posting blocks hold each patch's frame id and
  * box.
  *
  * `frames` (a Dataset) and `index.entries` (an RDD of posting blocks)
  * are cached and fully loaded. `patches` is not: the build releases its
  * cache once the index holds every patch, since no query reads it;
  * reading it recomputes the summary from the cached frames. `meta` is not
  * cached either: it is the metadata rows read from the posting blocks
  * ([[MetadataStore.fromIndex]]), which no `Lovo` call reads; the
  * benchmark's replay resolves hits through it.
  */
final case class LovoBuild(
    cfg: LovoConfig,
    dataset: DatasetConfig,
    frames: Dataset[FrameRec],
    patches: Dataset[PatchRec],
    index: InvertedMultiIndex,
    meta: Dataset[PatchMeta],
    counts: BuildCounts)

/** One end-to-end query answer: ranked candidates and stage telemetry. */
final case class LovoQueryResult(
    candidates: Seq[Candidate],     // final ranked detections (post-rerank if enabled)
    fastStats: AnnStats,
    rerank: Option[RerankResult],
    k: Int)

/** The LOVO system (paper §III): one-time video summary + vector-database
  * index build, then the two-stage query strategy of Algorithm 2.
  */
object Lovo {

  /** Offline phase: generate/ingest video, select keyframes, summarize,
    * train PQ codebooks, build the inverted multi-index, whose posting
    * blocks also hold the boxes. Each vector is then cached once, in the
    * index: the build releases the transient patch cache, which the
    * index's cached blocks no longer need.
    *
    * @param keyOnly false reproduces the w/o-key-frame ablation (index
    *                every raw frame)
    */
  def build(spark: SparkSession, dataset: DatasetConfig, specs: Seq[PlantSpec],
            cfg: LovoConfig = LovoConfig(), keyOnly: Boolean = true): LovoBuild = {
    import spark.implicits._
    val frames = Keyframes.select(SynthVideo.frames(spark, dataset, specs)).cache()
    val (rawFrames, keyFrames) =
      frames.select(count(lit(1)), count(when($"isKey", true))).as[(Long, Long)].head()
    val patches = VideoSummary.summarize(frames, cfg.summary, keyOnly).cache()
    val pq = ProductQuantizer.train(
      patches.map(_.emb).rdd, cfg.pqSubspaces, cfg.pqSubdim, cfg.pqCentroids,
      cfg.kmeansIters)
    val index = InvertedMultiIndex.build(patches, pq, cfg.indexPartitions)
    patches.unpersist(blocking = true)
    LovoBuild(cfg, dataset, frames, patches, index, MetadataStore.fromIndex(index),
      BuildCounts(rawFrames, keyFrames, index.total, cfg.kmeansIters,
        index.total * VideoSummary.bytesPerEntry))
  }

  /** Build the HNSW variant's graph over the same stored vectors. */
  def buildHnsw(b: LovoBuild): HnswIndex =
    Hnsw.build(b.index, b.cfg.hnswM, b.cfg.hnswEfConstruction)

  /** Stage 1 — top-k fast search (Algorithm 2 lines 1–2): encode the key
    * phrases to a single query vector and search the chosen index variant.
    * Each hit carries its frame id and box from the posting it was read
    * with, so the candidates are the hits and no metadata lookup runs:
    * IVF-PQ and BF run one Spark job, HNSW none.
    */
  def fastSearch(b: LovoBuild, parsed: TextEncoder.ParsedQuery, k: Int,
                 variant: AnnVariant = AnnVariant.IvfPq,
                 hnsw: Option[HnswIndex] = None): (Seq[Candidate], AnnStats) = {
    val q = TextEncoder.fastEmbedding(parsed)
    variant match {
      case AnnVariant.IvfPq =>
        AnnSearch.search(b.index, q, k, b.cfg.topA, b.cfg.rescoreFactor, b.cfg.scanFraction)
      case AnnVariant.Bf =>
        BruteForce.search(b.index, q, k)
      case AnnVariant.Hnsw =>
        require(hnsw.isDefined, "HNSW variant requires a prebuilt graph")
        Hnsw.search(hnsw.get, q, k, math.max(b.cfg.hnswEfSearch, k))
    }
  }

  /** Full two-stage query (Algorithm 2). With rerank disabled the fast
    * search candidates are returned as-is (Table IV w/o-rerank ablation).
    * With rerank enabled the rerank takes the distinct frames of the hits
    * in best-score order and its decoder predicts the boxes afresh.
    */
  def query(b: LovoBuild, parsed: TextEncoder.ParsedQuery, k: Int,
            variant: AnnVariant = AnnVariant.IvfPq,
            useRerank: Boolean = true,
            hnsw: Option[HnswIndex] = None): LovoQueryResult = {
    val (hits, stats) = fastSearch(b, parsed, k, variant, hnsw)
    if (!useRerank) return LovoQueryResult(hits, stats, None, k)

    // Stage 2: rerank the distinct candidate frames (best-score order).
    val frameOrder = hits.sortBy(h => (-h.score, h.frameId)).map(_.frameId).distinct
    val rr = CrossModalRerank.rerank(b.frames, frameOrder, parsed, b.cfg.rerank)
    val reranked = rr.objects.take(k).map(o =>
      Candidate(patchId = -1L, frameId = o.frameId, score = o.score, box = o.box))
    LovoQueryResult(reranked, stats, Some(rr), k)
  }
}
