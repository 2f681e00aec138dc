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
    ph: Double,
    isObject: Boolean)

/** A fully resolved retrieval candidate after the metadata lookup. */
final case class Candidate(
    patchId: Long,
    frameId: Long,
    score: Double,
    box: BBox)

object MetadataStore {

  /** Build the relational side of the storage module. */
  def build(patches: Dataset[PatchRec]): Dataset[PatchMeta] = {
    val spark = patches.sparkSession
    import spark.implicits._
    patches.map(p => PatchMeta(p.patchId, p.frameId, p.px, p.py, p.pw, p.ph, p.isObject)).cache()
  }

  /** Resolve search hits to boxes: one narrow filter of the cached store
    * on the hits' patch ids (no join, no shuffle). The output follows the
    * input hits (descending score), one candidate per hit with that hit's
    * score; hits whose patch id the store lacks are dropped.
    */
  def resolve(meta: Dataset[PatchMeta], hits: Seq[SearchHit]): Seq[Candidate] = {
    if (hits.isEmpty) return Seq.empty
    val spark = meta.sparkSession
    import spark.implicits._
    val rows = meta
      .coalesce(spark.sparkContext.defaultParallelism)
      .filter($"patchId".isin(hits.map(_.patchId).distinct: _*))
      .select($"patchId", $"frameId", $"px", $"py", $"pw", $"ph")
      .as[(Long, Long, Double, Double, Double, Double)]
      .collect()
      .map { case (pid, fid, x, y, w, h) => pid -> (fid, BBox(x, y, w, h)) }
      .toMap
    hits.flatMap(h => rows.get(h.patchId).map { case (fid, box) =>
      Candidate(h.patchId, fid, h.score, box)
    })
  }
}
