package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.encoder.TextEncoder
import repro.index.HnswIndex
import repro.video.Datasets

/** A dataset prepared for evaluation: generated video, built LOVO index,
  * per-query measured ground truth. HNSW is built lazily (only Table V
  * needs it) and its build distance-computations are recorded.
  */
final class Bundle(val build: LovoBuild) {

  val queries: Seq[QuerySpec] = Workloads.forDataset(build.dataset.name)

  /** Measured ground truth per query id (labelled on keyframes). */
  lazy val gt: Map[String, Seq[GtObject]] =
    queries.map { q =>
      q.id -> Metrics.groundTruth(build.frames, TextEncoder.parse(q.text).tokens)
    }.toMap

  /** The HNSW graph plus its build-time distance-computation count
    * (taken before any search adds to the graph's running `distComps`).
    */
  lazy val hnsw: (HnswIndex, Long) = {
    val g = Lovo.buildHnsw(build)
    (g, g.distComps)
  }
}

/** The bundles of one Spark session at one scale. Each `(dataset,
  * keyOnly)` is built with [[Harness.bundle]] on first use, reported in one
  * line on stderr, and shared by every later caller; nothing is released
  * before the session ends.
  */
final class Bundles(spark: SparkSession, scale: Double) {

  private val cache = scala.collection.mutable.Map[(String, Boolean), Bundle]()

  def apply(dataset: String, keyOnly: Boolean = true): Bundle = synchronized {
    cache.getOrElseUpdate((dataset, keyOnly), {
      val t0 = System.nanoTime()
      val b = Harness.bundle(spark, dataset, scale, keyOnly = keyOnly)
      val c = b.build.counts
      Console.err.println(f"[bundles] built $dataset scale=$scale keyOnly=$keyOnly " +
        f"in ${(System.nanoTime() - t0) / 1e9}%.1f s " +
        s"(raw=${c.rawFrames} key=${c.keyFrames} entries=${c.entries})")
      b
    })
  }
}

/** One LOVO query execution with accuracy + modeled latency. */
final case class LovoRun(
    queryId: String,
    variant: AnnVariant,
    useRerank: Boolean,
    avep: Double,
    gtCount: Int,
    k: Int,
    fastSec: Double,
    rerankSec: Double,
    processingSec: Double,
    indexingSec: Double,
    framesReranked: Int) {
  def searchSec: Double = fastSec + rerankSec
  def totalSec: Double = processingSec + indexingSec + searchSec
}

/** Builds bundles and runs LOVO (all variants/ablations) and baselines. */
object Harness {

  /** Prepare one dataset at a scale (1.0 = paper calibration). */
  def bundle(spark: SparkSession, datasetName: String, scale: Double = 1.0,
             keyOnly: Boolean = true): Bundle = {
    val cfg = Datasets.byName(datasetName).scaled(scale)
    val specs = Workloads.plantSpecsFor(datasetName)
    new Bundle(Lovo.build(spark, cfg, specs, keyOnly = keyOnly))
  }

  /** Execute one query end to end and score it. */
  def runLovo(b: Bundle, queryId: String,
              variant: AnnVariant = AnnVariant.IvfPq,
              useRerank: Boolean = true): LovoRun = {
    val spec = Workloads.byId(queryId)
    require(spec.dataset == b.build.dataset.name,
      s"query $queryId belongs to ${spec.dataset}, bundle is ${b.build.dataset.name}")
    val parsed = TextEncoder.parse(spec.text)
    val k = math.min(b.build.cfg.retrievalMultiplier.toLong * spec.nPos, b.build.counts.entries)
      .toInt.max(1)

    val hnswOpt = if (variant == AnnVariant.Hnsw) Some(b.hnsw._1) else None
    val r = Lovo.query(b.build, parsed, k, variant, useRerank, hnswOpt)

    val gt = b.gt(queryId)
    val avep = Metrics.averagePrecision(
      r.candidates.map(c => Detection(c.frameId, c.score, c.box)), gt)

    val c = b.build.counts
    val pq = b.build.index.pq
    val indexingSec = variant match {
      case AnnVariant.IvfPq => CostModel.indexingIvfPq(c.entries, c.kmeansIters, pq.P, pq.M, pq.m)
      case AnnVariant.Bf   => CostModel.indexingBf
      case AnnVariant.Hnsw => CostModel.indexingHnsw(b.hnsw._2)
    }

    LovoRun(
      queryId = queryId,
      variant = variant,
      useRerank = useRerank,
      avep = avep,
      gtCount = gt.size,
      k = k,
      fastSec = CostModel.fastSearch(r.fastStats),
      rerankSec = r.rerank.fold(0.0)(CostModel.rerank),
      processingSec = CostModel.processing(c.rawFrames, c.keyFrames),
      indexingSec = indexingSec,
      framesReranked = r.rerank.fold(0)(_.framesProcessed))
  }

  /** One baseline execution with accuracy + modeled latency. */
  final case class BaselineRun(
      method: String,
      queryId: String,
      avep: Double,
      processingSec: Double,
      searchSec: Double) {
    def totalSec: Double = processingSec + searchSec
  }

  /** Run a named baseline on a bundle's query. */
  def runBaseline(b: Bundle, method: String, queryId: String): BaselineRun = {
    val spec = Workloads.byId(queryId)
    runBaselineText(b, method, queryId, spec.text, b.gt(queryId))
  }

  /** Run a named baseline on an ad-hoc query text (Table I's probe
    * queries are not part of the planted workload; their ground truth is
    * measured directly from the scene population).
    */
  def runBaselineText(b: Bundle, method: String, queryId: String,
                      text: String, gt: Seq[GtObject]): BaselineRun = {
    val parsed = TextEncoder.parse(text)
    val k = math.max(1, b.build.cfg.retrievalMultiplier * math.max(gt.size, 1))
    val frames = b.build.frames
    val c = b.build.counts
    import repro.baselines._
    val (dets, proc, search) = method match {
      case "VOCAL" =>
        (Vocal.search(frames, parsed, k),
          CostModel.vocalIndexing(c.keyFrames), CostModel.tVocalSearch)
      case "MIRIS" =>
        (Miris.search(frames, parsed, k), 0.0, CostModel.mirisSearch(c.rawFrames))
      case "FiGO" =>
        (Figo.search(frames, parsed, k), 0.0, CostModel.figoSearch(c.rawFrames))
      case "ZELDA" =>
        (Zelda.search(frames, parsed, k),
          CostModel.zeldaProcessing(c.rawFrames), CostModel.zeldaSearch(c.keyFrames))
      case "UMT" =>
        (Umt.search(frames, b.build.dataset, parsed, k),
          CostModel.umtProcessing(c.rawFrames),
          CostModel.umtSearch(Umt.windowCount(b.build.dataset)))
      case "VISA" =>
        (Visa.search(frames, b.build.dataset, parsed, k),
          CostModel.visaProcessing(c.rawFrames), CostModel.visaSearch(c.keyFrames))
      case "DINO" =>
        (Dino.search(frames, parsed, k),
          CostModel.dinoProcessing(c.rawFrames), CostModel.dinoSearch(c.keyFrames))
      case other => sys.error(s"unknown baseline $other")
    }
    BaselineRun(method, queryId, Metrics.averagePrecision(dets, gt), proc, search)
  }

  /** Ground truth of an arbitrary query text on a bundle. */
  def groundTruthFor(b: Bundle, text: String): Seq[GtObject] =
    Metrics.groundTruth(b.build.frames, TextEncoder.parse(text).tokens)
}
