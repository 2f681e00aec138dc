package repro.index

import org.apache.spark.sql.Dataset
import repro.vit.{BBox, PatchRec}

/** Relational side store row: patch id -> keyframe id + predicted box
  * (paper §V-B: "supplementary metadata such as key frame identifiers and
  * bounding box coordinates are stored separately in a relational
  * database", linked by the shared patch id).
  */
final case class PatchMeta(
    patchId: Long,
    frameId: Long,
    px: Double,
    py: Double,
    pw: Double,
    ph: Double)

/** A fully resolved retrieval candidate after the metadata lookup. */
final case class Candidate(
    patchId: Long,
    frameId: Long,
    score: Double,
    box: BBox)

object MetadataStore {

  /** Build the relational side of the storage module: a cached Dataset,
    * loaded in full before it returns ([[CachedRows.load]], one narrow
    * job), as the index build's directory scan loads the posting blocks.
    * A loaded store no longer reads `patches`, so the caller may release
    * that cache, and the first [[resolve]] finds the store ready.
    */
  def build(patches: Dataset[PatchRec]): Dataset[PatchMeta] = {
    val spark = patches.sparkSession
    import spark.implicits._
    val meta = patches.map(p => PatchMeta(p.patchId, p.frameId, p.px, p.py, p.pw, p.ph)).cache()
    CachedRows.load(meta, "metadata_load")
    meta
  }

  /** Resolve search hits to boxes: one narrow scan of the cached store
    * ([[CachedRows.scan]], planned once per store) that reads each row's
    * patch id and decodes only the rows of the hits (no join, no shuffle).
    * The output follows the input hits (descending score), one candidate
    * per hit with that hit's score; hits whose patch id the store lacks
    * are dropped.
    */
  def resolve(meta: Dataset[PatchMeta], hits: Seq[SearchHit]): Seq[Candidate] = {
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
