package repro.index

import org.apache.spark.sql.{Dataset, functions => F}
import repro.pq.ProductQuantizer
import repro.vit.PatchRec

/** One vector-database entry: PQ codes address the multi-index cell, the
  * raw embedding is retained for exact rescoring (paper Alg. 1 line 14).
  */
final case class IndexedVec(
    patchId: Long,
    frameId: Long,
    codes: Array[Int],
    cellId: Long,
    emb: Array[Float])

/** The inverted multi-index (paper §V-B, Babenko & Lempitsky [33]).
  *
  * Entries live in a cached Spark Dataset partitioned by cell id — the
  * distributed analogue of per-cell posting lists. A driver-side cell
  * directory (cell id -> posting count) lets the query planner pick
  * candidate cells without touching the data. The postings are not
  * addressable by cell, so a query still reads every cached entry once
  * and keeps those of the selected cells; ADC and the exact rescore then
  * run on the selected cells' postings only.
  */
final case class InvertedMultiIndex(
    entries: Dataset[IndexedVec],
    pq: ProductQuantizer,
    cellDirectory: Map[Long, Long],
    total: Long) {

  def nCells: Int = cellDirectory.size

  /** The directory's cell ids in ascending order. Together with
    * [[cellCounts]] and [[cellCodes]] this is the directory as primitive
    * arrays, built once per index, so ranking the cells of a query walks
    * arrays instead of the map.
    */
  lazy val cellIds: Array[Long] = cellDirectory.keys.toArray.sorted

  /** `cellCounts(i)` is the posting count of cell `cellIds(i)`. */
  lazy val cellCounts: Array[Long] = cellIds.map(cellDirectory)

  /** `cellCodes(i)` holds the decoded PQ codes of cell `cellIds(i)`. */
  lazy val cellCodes: Array[Array[Int]] = cellIds.map(pq.decodeCell)
}

object InvertedMultiIndex {

  /** Index-build batch job: encode every patch embedding, key by cell. */
  def build(patches: Dataset[PatchRec], pq: ProductQuantizer,
            nPartitions: Int = 16): InvertedMultiIndex = {
    val spark = patches.sparkSession
    import spark.implicits._
    val entries = patches
      .map { p =>
        val codes = pq.encode(p.emb)
        IndexedVec(p.patchId, p.frameId, codes, pq.cellId(codes), p.emb)
      }
      .repartition(nPartitions, F.col("cellId"))
      .cache()
    val directory = entries.groupBy($"cellId").count()
      .as[(Long, Long)].collect().toMap
    InvertedMultiIndex(entries, pq, directory, directory.values.sum)
  }
}
