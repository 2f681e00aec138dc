package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.encoder.TextEncoder
import repro.index._
import repro.pq.{KMeans, ProductQuantizer}
import repro.rerank.{CrossModalRerank, RerankResult}
import repro.video.{DatasetConfig, FrameBlock, FrameRec, Keyframes, PlantSpec, SynthVideo}
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
  * Two RDDs are cached and fully loaded: `frameBlocks`, the selected
  * frames packed one [[FrameBlock]] per non-empty partition, which the
  * rerank reads, and `index.entries`, the posting blocks. Both are local
  * checkpoints (`RDD.localCheckpoint`, `MEMORY_AND_DISK`): their lineage
  * ends at the cache, so a query job plans one stage and never the build's
  * shuffles, and a block lost from the cache (only `unpersist` loses one
  * in a single JVM) is not recomputed: the next scan fails with Spark's
  * `CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND`, and a fresh build is the recovery.
  * `frames` is an uncached view of the frame blocks, decoded on every
  * read, with their partitions and order. `patches` is not cached: the build releases its
  * cache once the index holds every patch, since no query reads it;
  * reading it recomputes the summary from the frame blocks. `meta` is not
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
    counts: BuildCounts,
    frameBlocks: RDD[FrameBlock])

object LovoBuild {

  /** A build over frames the caller holds: its frame blocks are uncached
    * blocks of `frames`, packed on every read.
    */
  def apply(cfg: LovoConfig, dataset: DatasetConfig, frames: Dataset[FrameRec],
            patches: Dataset[PatchRec], index: InvertedMultiIndex, meta: Dataset[PatchMeta],
            counts: BuildCounts): LovoBuild =
    LovoBuild(cfg, dataset, frames, patches, index, meta, counts, FrameBlock.blocks(frames))
}

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

  /** Offline phase: generate/ingest video, select keyframes and cache them
    * as frame blocks, summarize, train PQ codebooks, build the inverted
    * multi-index, whose posting blocks also hold the boxes. The collect of
    * the raw and keyframe counts loads the frame blocks, and with every
    * block cached it truncates their lineage (a local checkpoint, so no
    * extra job; the index does the same with its directory collect). Each
    * vector is then cached once, in the index: the build releases the
    * transient patch cache, which the index's cached blocks no longer need.
    *
    * @param keyOnly false reproduces the w/o-key-frame ablation (index
    *                every raw frame)
    */
  def build(spark: SparkSession, dataset: DatasetConfig, specs: Seq[PlantSpec],
            cfg: LovoConfig = LovoConfig(), keyOnly: Boolean = true): LovoBuild = {
    import spark.implicits._
    val frameBlocks = FrameBlock.blocks(Keyframes.select(SynthVideo.frames(spark, dataset, specs)))
      .localCheckpoint()
    val (rawFrames, keyFrames) =
      frameBlocks.map(b => (b.size.toLong, b.isKey.count(identity).toLong)).collect().unzip
    val frames = frameBlocks.flatMap(_.frames).toDS()
    val patches = VideoSummary.summarize(frames, cfg.summary, keyOnly).cache()
    val pq = ProductQuantizer.train(
      patches.map(_.emb).rdd, cfg.pqSubspaces, cfg.pqSubdim, cfg.pqCentroids)
    val index = InvertedMultiIndex.build(patches, pq)
    patches.unpersist(blocking = true)
    LovoBuild(cfg, dataset, frames, patches, index, MetadataStore.fromIndex(index),
      BuildCounts(rawFrames.sum, keyFrames.sum, index.total, KMeans.Iters,
        index.total * VideoSummary.bytesPerEntry), frameBlocks)
  }

  /** Build the HNSW variant's graph over the same stored vectors. */
  def buildHnsw(b: LovoBuild): HnswIndex =
    Hnsw.build(b.index)

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
        AnnSearch.search(b.index, q, k)
      case AnnVariant.Bf =>
        BruteForce.search(b.index, q, k)
      case AnnVariant.Hnsw =>
        require(hnsw.isDefined, "HNSW variant requires a prebuilt graph")
        Hnsw.search(hnsw.get, q, k)
    }
  }

  /** Full two-stage query (Algorithm 2). With rerank disabled the fast
    * search candidates are returned as-is (Table IV w/o-rerank ablation).
    * With rerank enabled the rerank reads the hits' frames from the cached
    * frame blocks (one Spark job) and its decoder predicts the boxes
    * afresh.
    */
  def query(b: LovoBuild, parsed: TextEncoder.ParsedQuery, k: Int,
            variant: AnnVariant = AnnVariant.IvfPq,
            useRerank: Boolean = true,
            hnsw: Option[HnswIndex] = None): LovoQueryResult = {
    val (hits, stats) = fastSearch(b, parsed, k, variant, hnsw)
    if (!useRerank) return LovoQueryResult(hits, stats, None, k)

    // Stage 2: rerank the hits' frames.
    val rr = CrossModalRerank.rerank(b.frameBlocks, hits.map(_.frameId), parsed, b.cfg.rerank)
    val reranked = rr.objects.take(k).map(o =>
      Candidate(patchId = -1L, frameId = o.frameId, score = o.score, box = o.box))
    LovoQueryResult(reranked, stats, Some(rr), k)
  }
}
