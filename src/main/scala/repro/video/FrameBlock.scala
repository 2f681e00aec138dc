package repro.video

import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.util.ScanJob

/** The frames of one partition in ascending frame-id order, packed into
  * primitive arrays: frame `i`'s objects are `objStart(i) until
  * objStart(i + 1)`, and object `o`'s tokens are `tokStart(o) until
  * tokStart(o + 1)`. Strings (dataset names and tokens) are `Int` codes
  * into the block's own dictionary `dict`. A reader finds a frame by
  * binary search ([[indexOf]]) and decodes only that frame ([[frame]]),
  * bit for bit the [[FrameRec]] it was packed from.
  *
  * @param datasets dictionary code of each frame's dataset name
  * @param boxes    the true box of object `o` at `4 * o until 4 * (o + 1)`:
  *                 its x, y, w, h
  * @param tokens   dictionary codes of the objects' tokens, object by
  *                 object, each in its object's token order
  */
final case class FrameBlock(
    frameIds: Array[Long],
    videoIds: Array[Long],
    idx: Array[Long],
    motion: Array[Double],
    isKey: Array[Boolean],
    datasets: Array[Int],
    objStart: Array[Int],
    objIds: Array[Long],
    boxes: Array[Double],
    tokStart: Array[Int],
    tokens: Array[Int],
    dict: Array[String]) {

  def size: Int = frameIds.length

  /** Position of frame `id` in the block, negative if the block lacks it. */
  def indexOf(id: Long): Int = java.util.Arrays.binarySearch(frameIds, id)

  /** Decodes frame `i`. */
  def frame(i: Int): FrameRec = {
    val objects = (objStart(i) until objStart(i + 1)).map { o =>
      ObjRec(objIds(o), (tokStart(o) until tokStart(o + 1)).map(t => dict(tokens(t))),
        boxes(4 * o), boxes(4 * o + 1), boxes(4 * o + 2), boxes(4 * o + 3))
    }
    FrameRec(dict(datasets(i)), videoIds(i), frameIds(i), idx(i), motion(i), isKey(i), objects)
  }

  /** Decodes every frame, in block order. */
  def frames: Iterator[FrameRec] = Iterator.range(0, size).map(frame)
}

object FrameBlock {

  /** Packs frames in strictly ascending frame-id order into a block. */
  def pack(frames: Array[FrameRec]): FrameBlock = {
    require(frames.indices.forall(i => i == 0 || frames(i - 1).frameId < frames(i).frameId),
      "frame ids must ascend strictly within a block")
    val codes = mutable.HashMap[String, Int]()
    val dict = mutable.ArrayBuffer[String]()
    def code(s: String): Int = codes.getOrElseUpdate(s, { dict += s; dict.size - 1 })
    val objects = frames.flatMap(_.objects)
    val objStart = frames.scanLeft(0)(_ + _.objects.size)
    val tokStart = objects.scanLeft(0)(_ + _.tokens.size)
    val boxes = objects.flatMap(o => Array(o.x, o.y, o.w, o.h))
    FrameBlock(frames.map(_.frameId), frames.map(_.videoId), frames.map(_.idx),
      frames.map(_.motion), frames.map(_.isKey), frames.map(f => code(f.dataset)),
      objStart, objects.map(_.objId), boxes, tokStart, objects.flatMap(_.tokens.map(code)),
      dict.toArray)
  }

  /** One uncached block per non-empty partition of `frames`, each
    * partition's frames in frame-id order: a partition in that order
    * already keeps its row order.
    */
  def blocks(frames: Dataset[FrameRec]): RDD[FrameBlock] =
    frames.rdd.mapPartitions(fs =>
      if (fs.hasNext) Iterator(pack(fs.toArray.sortBy(_.frameId))) else Iterator.empty)

  /** Runs `f` on every block and collects what it returns: one narrow
    * Spark job of at most `defaultParallelism` tasks ([[ScanJob.collect]],
    * which calls `SparkContext.runJob` directly to skip the closure
    * cleaning `map(f).collect()` repeats per call), in no guaranteed
    * order over cached blocks. A one-video dataset has one block, so one of
    * those tasks does all the work. Each task ships `f`, so `f` must capture
    * query-sized values only.
    */
  def scan[U: ClassTag](blocks: RDD[FrameBlock])(f: FrameBlock => U): Array[U] =
    ScanJob.collect(blocks)(_.map(f))
}
