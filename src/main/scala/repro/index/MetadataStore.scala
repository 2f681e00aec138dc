package repro.index

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.vit.{BBox, PatchRec}

/** Relational side store row: patch id -> keyframe id + predicted box
  * (paper §V-B: "supplementary metadata such as key frame identifiers and
  * bounding box coordinates are stored separately in a relational
  * database", linked by the shared patch id). No query reads these rows:
  * the posting blocks hold each posting's frame id and box, so every hit
  * carries them (see [[MetadataStore]]).
  */
final case class PatchMeta(
    patchId: Long,
    frameId: Long,
    px: Double,
    py: Double,
    pw: Double,
    ph: Double)

/** The paper's separately stored relational metadata and its lookup.
  *
  * `Lovo` no longer uses it: the boxes sit next to the postings in the
  * [[PostingBlock]]s, so a fast search resolves no hit through a second
  * Spark job. [[build]] and [[resolve]] stay for the benchmark's
  * layer-by-layer replay, which calls them, and as the tests' oracle for
  * the boxes the hits carry; [[fromIndex]] serves the replay the rows of
  * a built index.
  */
object MetadataStore {

  /** Build a store from the patches: a cached Dataset, loaded in full
    * before it returns ([[CachedRows.load]], one narrow job), so the
    * caller may release the `patches` cache and the first [[resolve]]
    * finds the store ready.
    */
  def build(patches: Dataset[PatchRec]): Dataset[PatchMeta] = {
    val spark = patches.sparkSession
    import spark.implicits._
    val meta = patches.map(p => PatchMeta(p.patchId, p.frameId, p.px, p.py, p.pw, p.ph)).cache()
    CachedRows.load(meta, "metadata_load")
    meta
  }

  /** The store's rows read from an index: a narrow, uncached flatMap over
    * the cached posting blocks' ids and boxes, so it reads the blocks' cache
    * and never the patches (nor recomputes the summary behind them).
    */
  def fromIndex(index: InvertedMultiIndex): Dataset[PatchMeta] = {
    val spark = SparkSession.active
    import spark.implicits._
    index.entries.flatMap { b =>
      b.patchIds.indices.map { j =>
        val box = BBox.packed(b.boxes, j)
        PatchMeta(b.patchIds(j), b.frameIds(j), box.x, box.y, box.w, box.h)
      }
    }.toDS()
  }

  /** Resolve search hits to boxes: one narrow scan of the store
    * ([[CachedRows.scan]], planned once per store) that reads each row's
    * patch id and decodes only the rows of the hits (no join, no shuffle).
    * The output follows the input hits (descending score), one candidate
    * per hit with that hit's patch id and score and the store's frame id
    * and box; hits whose patch id the store lacks are dropped.
    */
  def resolve(meta: Dataset[PatchMeta], hits: Seq[Candidate]): Seq[Candidate] = {
    if (hits.isEmpty) return Seq.empty
    val ids = hits.map(_.patchId).distinct.toArray.sorted
    val col = CachedRows.column(meta, _: String)
    val (patchCol, frameCol) = (col("patchId"), col("frameId"))
    val (xCol, yCol, wCol, hCol) = (col("px"), col("py"), col("pw"), col("ph"))
    val rows = CachedRows.scan(meta, "resolve")(_.collect {
      case r if java.util.Arrays.binarySearch(ids, r.getLong(patchCol)) >= 0 =>
        r.getLong(patchCol) -> (r.getLong(frameCol),
          BBox(r.getDouble(xCol), r.getDouble(yCol), r.getDouble(wCol), r.getDouble(hCol)))
    }).toMap
    hits.flatMap(h => rows.get(h.patchId).map { case (fid, box) =>
      Candidate(h.patchId, fid, h.score, box)
    })
  }
}
