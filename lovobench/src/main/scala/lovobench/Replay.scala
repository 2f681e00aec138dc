package lovobench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.encoder.TextEncoder
import repro.index._
import repro.pq.ProductQuantizer
import repro.rerank.CrossModalRerank
import repro.video.{DatasetConfig, Keyframes, PlantSpec, SynthVideo}
import repro.vit.VideoSummary

/** Layer-by-layer replays of `Lovo.build`, `Lovo.buildHnsw`,
  * `Lovo.fastSearch` and `Lovo.query`: the same public calls in the same
  * order, each wrapped in a span. The traced run checks that a replay
  * returns exactly what the composed call returns, so the spans describe
  * the code that the untraced run measures.
  */
object Replay {

  def build(tr: Tracer, spark: SparkSession, dataset: DatasetConfig, specs: Seq[PlantSpec],
            cfg: LovoConfig): LovoBuild = {
    import spark.implicits._
    val (frames, rawFrames, keyFrames) = tr.span("video.select") {
      val f = Keyframes.select(SynthVideo.frames(spark, dataset, specs)).cache()
      (f, f.count(), f.filter(_.isKey).count())
    }
    val (patches, nEntries) = tr.span("vit.summarize") {
      val p = VideoSummary.summarize(frames, cfg.summary, keyOnly = true).cache()
      (p, p.count())
    }
    val pq = tr.span("pq.train") {
      ProductQuantizer.train(patches.map(_.emb).rdd, cfg.pqSubspaces, cfg.pqSubdim,
        cfg.pqCentroids, cfg.kmeansIters)
    }
    val index = tr.span("index.build")(InvertedMultiIndex.build(patches, pq, cfg.indexPartitions))
    val meta = tr.span("index.meta_build")(MetadataStore.build(patches))
    tr.count("video.raw_frames", rawFrames.toDouble)
    tr.count("video.key_frames", keyFrames.toDouble)
    tr.count("vit.entries", nEntries.toDouble)
    tr.count("index.cells", index.nCells.toDouble)
    tr.count("index.entries_per_cell", index.total.toDouble / index.nCells)
    LovoBuild(cfg, dataset, frames, patches, index, meta,
      BuildCounts(rawFrames, keyFrames, nEntries, cfg.kmeansIters,
        nEntries * VideoSummary.bytesPerEntry))
  }

  def buildHnsw(tr: Tracer, b: LovoBuild): HnswIndex = {
    val g = tr.span("index.hnsw_build")(Hnsw.build(b.index, b.cfg.hnswM, b.cfg.hnswEfConstruction))
    tr.count("index.hnsw_build_dist_comps", g.distComps.toDouble)
    g
  }

  /** Encode, search one index variant, resolve boxes. */
  def fastSearch(tr: Tracer, b: LovoBuild, text: String, k: Int, variant: AnnVariant,
                 hnsw: Option[HnswIndex]): (TextEncoder.ParsedQuery, Seq[Candidate], AnnStats) = {
    val (parsed, q) = tr.span("encoder.encode") {
      val p = TextEncoder.parse(text)
      (p, TextEncoder.fastEmbedding(p))
    }
    val (hits, stats) = variant match {
      case AnnVariant.IvfPq =>
        val r = tr.span("index.ann_search")(AnnSearch.search(b.index, q, k, b.cfg.topA,
          b.cfg.rescoreFactor, b.cfg.scanFraction))
        val s = r._2
        tr.count("index.cells_scored", s.cellsScored.toDouble)
        tr.count("index.cells_selected", s.cellsSelected.toDouble)
        tr.count("index.candidates", s.candidates.toDouble)
        tr.count("index.rescored", s.rescored.toDouble)
        tr.count("index.scan_ratio", s.candidates.toDouble / b.index.total)
        tr.count("index.hit_ratio", if (s.candidates > 0) k.toDouble / s.candidates else 0.0)
        r
      case AnnVariant.Bf =>
        tr.span("index.bf_search")(BruteForce.search(b.index, q, k))
      case AnnVariant.Hnsw =>
        val g = hnsw.getOrElse(sys.error("HNSW replay requires a prebuilt graph"))
        val r = tr.span("index.hnsw_search")(Hnsw.search(g, q, k, math.max(b.cfg.hnswEfSearch, k)))
        tr.count("index.hnsw_dist_comps", r._2.candidates.toDouble)
        r
    }
    val cands = tr.span("index.resolve")(MetadataStore.resolve(b.meta, hits))
    (parsed, cands, stats)
  }

  /** Algorithm 2 with the IVF-PQ index: fast search, then rerank. */
  def query(tr: Tracer, b: LovoBuild, text: String, k: Int): LovoQueryResult = {
    val (parsed, cands, stats) = fastSearch(tr, b, text, k, AnnVariant.IvfPq, None)
    val rr = tr.span("rerank.rerank") {
      val frameOrder = cands.sortBy(c => (-c.score, c.frameId)).map(_.frameId).distinct
      CrossModalRerank.rerank(b.frames, frameOrder, parsed, b.cfg.rerank)
    }
    tr.count("rerank.frames", rr.framesProcessed.toDouble)
    tr.count("rerank.image_tokens", rr.totalImageTokens.toDouble)
    val reranked = rr.objects.take(k).map(o =>
      Candidate(patchId = -1L, frameId = o.frameId, score = o.score, box = o.box))
    LovoQueryResult(reranked, stats, Some(rr), k)
  }
}
