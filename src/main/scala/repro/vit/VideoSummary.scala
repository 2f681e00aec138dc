package repro.vit

import org.apache.spark.sql.Dataset
import repro.encoder.{SemanticSpace, Vocab}
import repro.video.FrameRec

/** One stored vector-collection entry: a patch token with its class
  * embedding and predicted box (paper §IV-D). `patchId` is the globally
  * unique key linking the vector database and the relational metadata
  * store; `objId` is ground-truth lineage kept for evaluation only and
  * never consulted by the query path.
  */
final case class PatchRec(
    patchId: Long,
    frameId: Long,
    objId: Long,
    isObject: Boolean,
    ax: Double,
    ay: Double,
    px: Double,
    py: Double,
    pw: Double,
    ph: Double,
    emb: Array[Float])

/** Noise parameters of the simulated visual encoder + localization head. */
final case class SummaryParams(
    sigmaVis: Double = 0.10,   // per-dim concept-space noise on object patches
    sigmaBg: Double = 0.50,    // noise on background patches
    boxNoise: Double = 0.08)   // coarse localization error, fraction of size

/** Video Summary (paper §IV): keyframes → per-patch class embeddings with
  * predicted boxes, as a distributed flatMap — the one-time, query-agnostic
  * feature-extraction pass.
  */
object VideoSummary {

  /** Summarize one frame into its K patch records (pure, for tests). */
  def summarizeFrame(fr: FrameRec, params: SummaryParams): Seq[PatchRec] = {
    val assigned = PatchGrid.assign(fr.objects)
    (0 until PatchGrid.K).map { k =>
      val patchId = fr.frameId * PatchGrid.K + k
      val a = PatchGrid.anchor(k)
      assigned.get(k) match {
        case Some(o) =>
          val emb = SemanticSpace.embedTokens(o.tokens, o.objId, params.sigmaVis)
          // predicted box = anchor-refined true box + coarse MLP noise (§IV-C)
          val b = BBox.noisy(o, params.boxNoise, 0xB0C5L)
          PatchRec(patchId, fr.frameId, o.objId, isObject = true,
            a.x, a.y, b.x, b.y, b.w, b.h, emb)
        case None =>
          val bgTokens = Seq(
            Vocab.token(Vocab.Cls, "background"),
            Vocab.token(Vocab.Ctx, "scene"))
          val emb = SemanticSpace.embedTokens(bgTokens, patchId, params.sigmaBg)
          PatchRec(patchId, fr.frameId, -1L, isObject = false,
            a.x, a.y, a.x, a.y, a.w, a.h, emb)
      }
    }
  }

  /** Distributed summary over the selected frames.
    *
    * @param keyOnly true = keyframes only (LOVO default); false = every raw
    *                frame (the w/o-key-frame ablation of Table IV)
    */
  def summarize(frames: Dataset[FrameRec], params: SummaryParams = SummaryParams(),
                keyOnly: Boolean = true): Dataset[PatchRec] = {
    val spark = frames.sparkSession
    import spark.implicits._
    val in = if (keyOnly) frames.filter(_.isKey) else frames
    in.flatMap(fr => summarizeFrame(fr, params))
  }

  /** Stored bytes per patch entry: fp32 embedding + ids + box metadata —
    * used for the keyframe-ablation storage comparison (paper §VII-E).
    */
  def bytesPerEntry: Long = SemanticSpace.Dp.toLong * 4 + 8 * 2 + 8 * 4
}
