package repro.index

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.vit.BBox

/** One stored posting as a row: its box, its cell, its PQ codes (the
  * cell's code word) and its embedding.
  */
final case class IndexedVec(
    patchId: Long,
    frameId: Long,
    box: BBox,
    codes: Array[Int],
    cellId: Long,
    emb: Array[Float])

/** The index's posting blocks flattened into one row per posting, for
  * tests that state their oracles over rows.
  */
object PostingRows {

  def flatten(index: InvertedMultiIndex): Dataset[IndexedVec] = {
    val spark = SparkSession.active
    import spark.implicits._
    val pq = index.pq
    val d = pq.dim
    index.entries.flatMap { b =>
      for (c <- b.cells.indices; j <- b.start(c) until b.start(c + 1))
        yield IndexedVec(b.patchIds(j), b.frameIds(j), BBox.packed(b.boxes, j), pq.decodeCell(b.cells(c)),
          b.cells(c), java.util.Arrays.copyOfRange(b.embs, j * d, (j + 1) * d))
    }.toDS()
  }
}
