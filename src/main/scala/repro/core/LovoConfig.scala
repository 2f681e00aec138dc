package repro.core

import repro.index.{AnnSearch, Hnsw, InvertedMultiIndex}
import repro.pq.KMeans
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

/** The fixed pipeline constants the benchmark reads (DESIGN.md §6). A
  * value that a function also uses reads the constant of its module.
  */
final case class LovoConfig() {
  val pqSubspaces: Int = 4 // P x m = D'
  val pqSubdim: Int = 8
  val pqCentroids: Int = 32
  val kmeansIters: Int = KMeans.Iters
  val topA: Int = AnnSearch.TopA
  val rescoreFactor: Int = AnnSearch.RescoreFactor
  val scanFraction: Double = AnnSearch.ScanFraction
  val hnswM: Int = Hnsw.M
  val hnswEfConstruction: Int = Hnsw.EfConstruction
  val hnswEfSearch: Int = Hnsw.EfSearch
  val summary: SummaryParams = SummaryParams()
  val rerank: RerankParams = RerankParams()
  // k = 10 x the expected result count (paper §VII-A's 10x-ground-truth protocol)
  val retrievalMultiplier: Int = 10
  val indexPartitions: Int = InvertedMultiIndex.Partitions
}
