package repro.index

import org.apache.spark.sql.{Dataset, functions => F}
import repro.pq.ProductQuantizer
import repro.vit.PatchRec

/** The postings of one index partition, sorted by cell and addressable by
  * cell: posting `j` lies in cell `cells(c)` for `start(c) <= j <
  * start(c + 1)`, and within a cell the postings are in patch-id order.
  * A cell id is the posting's full PQ code word ([[ProductQuantizer.cellId]]),
  * so a block stores no per-posting codes: `decodeCell(cells(c))` are the
  * codes of every posting of the cell.
  *
  * @param cells    the partition's populated cell ids, strictly ascending
  * @param start    posting offsets of the cells, `cells.length + 1` long,
  *                 ending at the posting count n
  * @param patchIds patch id of each posting
  * @param frameIds frame id of each posting
  * @param embs     the fp32 embedding of posting `j` at `j * D' until
  *                 (j + 1) * D'`, kept for the exact rescore (paper Alg. 1
  *                 line 14)
  */
final case class PostingBlock(
    cells: Array[Long],
    start: Array[Int],
    patchIds: Array[Long],
    frameIds: Array[Long],
    embs: Array[Float])

/** The inverted multi-index (paper §V-B, Babenko & Lempitsky [33]).
  *
  * Entries live in a cached Spark Dataset with one [[PostingBlock]] per
  * partition of the cell-id hash partitioning: the distributed analogue of
  * per-cell posting lists, each partition's lists packed cell by cell into
  * primitive arrays. A driver-side cell directory (cell id -> posting
  * count) lets the query planner pick candidate cells without touching the
  * data. Every posting of a cell shares the cell's ADC score, so the planner
  * scores cells, not postings, and a query then reads only the postings of
  * the cells it rescores (a merge walk of each block's sorted cell ids).
  */
final case class InvertedMultiIndex(
    entries: Dataset[PostingBlock],
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

  /** Index-build batch job: encode every patch embedding, hash-partition
    * the postings by cell (the one shuffle), sort each partition by (cell,
    * patch id) and pack it into a [[PostingBlock]]. The cell directory
    * comes from the cached blocks in one narrow collect.
    */
  def build(patches: Dataset[PatchRec], pq: ProductQuantizer,
            nPartitions: Int = 16): InvertedMultiIndex = {
    val spark = patches.sparkSession
    import spark.implicits._
    val entries = patches
      .map(p => (pq.cellId(pq.encode(p.emb)), p.patchId, p.frameId, p.emb))
      .toDF("cellId", "patchId", "frameId", "emb")
      .repartition(nPartitions, F.col("cellId"))
      .sortWithinPartitions("cellId", "patchId")
      .as[(Long, Long, Long, Array[Float])]
      .mapPartitions(rows => if (rows.hasNext) Iterator(pack(rows.toArray, pq.dim)) else Iterator.empty)
      .cache()
    val col = CachedRows.column(entries, _: String)
    val (cellsCol, startCol) = (col("cells"), col("start"))
    val directory = CachedRows.scan(entries, "index_directory")(_.map { r =>
      (r.getArray(cellsCol).toLongArray(), r.getArray(startCol).toIntArray())
    }).iterator.flatMap { case (cells, start) =>
      cells.indices.iterator.map(c => cells(c) -> (start(c + 1) - start(c)).toLong)
    }.toMap
    InvertedMultiIndex(entries, pq, directory, directory.values.sum)
  }

  /** Packs postings sorted by (cell, patch id) into a block. */
  private def pack(rows: Array[(Long, Long, Long, Array[Float])], d: Int): PostingBlock = {
    val n = rows.length
    val cells = Array.newBuilder[Long]
    val start = Array.newBuilder[Int]
    val embs = new Array[Float](n * d)
    for (((cell, _, _, emb), j) <- rows.iterator.zipWithIndex) {
      if (j == 0 || cell != rows(j - 1)._1) { cells += cell; start += j }
      System.arraycopy(emb, 0, embs, j * d, d)
    }
    start += n
    PostingBlock(cells.result(), start.result(), rows.map(_._2), rows.map(_._3), embs)
  }
}
