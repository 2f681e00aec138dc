package repro.core

import repro.rerank.RerankParams
import repro.vit.SummaryParams

/** Which vector-index variant serves the fast search (Table V). */
sealed trait AnnVariant
object AnnVariant {
  /** Quantization-based inverted multi-index — the paper's default. */
  case object IvfPq extends AnnVariant
  /** Exhaustive exact scan. */
  case object Bf extends AnnVariant
  /** Graph-based index. */
  case object Hnsw extends AnnVariant
  val all: Seq[AnnVariant] = Seq(Bf, IvfPq, Hnsw)
  def name(v: AnnVariant): String = v match {
    case IvfPq => "IVF-PQ"; case Bf => "BF"; case Hnsw => "HNSW"
  }
}

/** All tunables of the LOVO pipeline (DESIGN.md §6). */
final case class LovoConfig(
    // product quantization / inverted multi-index
    pqSubspaces: Int = 4,
    pqSubdim: Int = 8,
    pqCentroids: Int = 32,
    kmeansIters: Int = 8,
    // no longer affects the search (Algorithm 1's line-6 product set is
    // not applied); kept only because lovobench/Replay.scala passes it
    topA: Int = 4,
    rescoreFactor: Int = 20,
    scanFraction: Double = 0.35,
    // hnsw variant
    hnswM: Int = 8,
    hnswEfConstruction: Int = 64,
    hnswEfSearch: Int = 64,
    // encoders
    summary: SummaryParams = SummaryParams(),
    rerank: RerankParams = RerankParams(),
    // retrieval size policy: k = multiplier x expected result count
    // (paper §VII-A evaluates the top 10x-ground-truth retrieved objects)
    retrievalMultiplier: Int = 10,
    indexPartitions: Int = 16) {
  require(pqSubspaces >= 1, s"pqSubspaces must be at least 1, got $pqSubspaces")
  require(pqSubdim >= 1, s"pqSubdim must be at least 1, got $pqSubdim")
  require(pqCentroids >= 1, s"pqCentroids must be at least 1, got $pqCentroids")
  require(kmeansIters >= 1, s"kmeansIters must be at least 1, got $kmeansIters")
  require(pqSubspaces * pqSubdim == repro.encoder.SemanticSpace.Dp,
    s"PQ dims ${pqSubspaces}x$pqSubdim must equal D'=${repro.encoder.SemanticSpace.Dp}")
  require(rescoreFactor >= 1, "rescoreFactor must be at least 1")
}
