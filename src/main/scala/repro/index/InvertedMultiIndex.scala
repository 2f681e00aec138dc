package repro.index

import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, functions => F}
import org.apache.spark.storage.StorageLevel
import repro.pq.ProductQuantizer
import repro.vit.PatchRec

/** The postings of one index partition, sorted by cell and addressable by
  * cell: posting `j` lies in cell `cells(c)` for `start(c) <= j <
  * start(c + 1)`, and within a cell the postings are in patch-id order.
  * A cell id is the posting's full PQ code word ([[ProductQuantizer.cellId]]),
  * so a block stores no per-posting codes: `decodeCell(cells(c))` are the
  * codes of every posting of the cell. Every index scan reads these typed
  * arrays in place, from the cached block itself.
  *
  * @param cells    the partition's populated cell ids, strictly ascending
  * @param start    posting offsets of the cells, `cells.length + 1` long,
  *                 ending at the posting count n
  * @param patchIds patch id of each posting
  * @param frameIds frame id of each posting
  * @param boxes    the predicted box of posting `j` at `4 * j until
  *                 4 * (j + 1)`: its patch's px, py, pw, ph. A hit carries
  *                 its box from the scan that finds it, as a vector
  *                 database returns scalar output fields with its hits, so
  *                 no query joins a separate metadata store
  * @param embs     the fp32 embedding of posting `j` at `j * D' until
  *                 (j + 1) * D'`, kept for the exact rescore (paper Alg. 1
  *                 line 14)
  */
final case class PostingBlock(
    cells: Array[Long],
    start: Array[Int],
    patchIds: Array[Long],
    frameIds: Array[Long],
    boxes: Array[Double],
    embs: Array[Float])

/** The inverted multi-index (paper §V-B, Babenko & Lempitsky [33]).
  *
  * Entries live in a cached Spark RDD with one [[PostingBlock]] per
  * non-empty partition of the cell-id hash partitioning: the distributed
  * analogue of per-cell posting lists, each partition's lists packed cell
  * by cell into primitive arrays. The cache holds the blocks as objects,
  * so a scan ([[scan]]) reads their arrays in place. Spark's cache manager
  * re-plans Dataset caches, never an RDD, so releasing a cache the build
  * read (the patches) changes no block; a lost block is recomputed from
  * the build's lineage. A driver-side cell directory (cell id -> posting
  * count) lets the query planner pick candidate cells without touching the
  * data. Every posting of a cell shares the cell's ADC score, so the planner
  * scores cells, not postings, and a query then reads only the postings of
  * the cells it rescores (a merge walk of each block's sorted cell ids).
  */
final case class InvertedMultiIndex(
    entries: RDD[PostingBlock],
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

  /** Runs `f` on every cached posting block and collects what it returns:
    * one narrow Spark job at `defaultParallelism` tasks, one per core.
    * Each task ships `f`, so `f` must capture query-sized values only,
    * never the index and its directory.
    */
  def scan[U: ClassTag](f: PostingBlock => U): Array[U] =
    entries.coalesce(entries.sparkContext.defaultParallelism).map(f).collect()
}

object InvertedMultiIndex {

  /** One posting on its way into a block: cell id, patch id, frame id,
    * box (px, py, pw, ph) and embedding.
    */
  private type Posting = (Long, Long, Long, Double, Double, Double, Double, Array[Float])

  /** Index-build batch job: encode every patch embedding, hash-partition
    * the postings by cell (the one shuffle), sort each partition by (cell,
    * patch id) and pack it into a [[PostingBlock]], cached at the level
    * `Dataset.cache` uses. The cell directory comes from the blocks in one
    * narrow collect, which loads the cache.
    */
  def build(patches: Dataset[PatchRec], pq: ProductQuantizer,
            nPartitions: Int = 16): InvertedMultiIndex = {
    val spark = patches.sparkSession
    import spark.implicits._
    val entries = patches
      .map(p => (pq.cellId(pq.encode(p.emb)), p.patchId, p.frameId, p.px, p.py, p.pw, p.ph, p.emb))
      .toDF("cellId", "patchId", "frameId", "px", "py", "pw", "ph", "emb")
      .repartition(nPartitions, F.col("cellId"))
      .sortWithinPartitions("cellId", "patchId")
      .as[Posting]
      .mapPartitions(rows => if (rows.hasNext) Iterator(pack(rows.toArray, pq.dim)) else Iterator.empty)
      .rdd.persist(StorageLevel.MEMORY_AND_DISK)
    val directory = entries.map(b => (b.cells, b.start)).collect().iterator.flatMap { case (cells, start) =>
      cells.indices.iterator.map(c => cells(c) -> (start(c + 1) - start(c)).toLong)
    }.toMap
    InvertedMultiIndex(entries, pq, directory, directory.values.sum)
  }

  /** Packs postings sorted by (cell, patch id) into a block. */
  private def pack(rows: Array[Posting], d: Int): PostingBlock = {
    val n = rows.length
    val cells = Array.newBuilder[Long]
    val start = Array.newBuilder[Int]
    val boxes = new Array[Double](4 * n)
    val embs = new Array[Float](n * d)
    for (((cell, _, _, x, y, w, h, emb), j) <- rows.iterator.zipWithIndex) {
      if (j == 0 || cell != rows(j - 1)._1) { cells += cell; start += j }
      boxes(4 * j) = x; boxes(4 * j + 1) = y; boxes(4 * j + 2) = w; boxes(4 * j + 3) = h
      System.arraycopy(emb, 0, embs, j * d, d)
    }
    start += n
    PostingBlock(cells.result(), start.result(), rows.map(_._2), rows.map(_._3), boxes, embs)
  }
}
