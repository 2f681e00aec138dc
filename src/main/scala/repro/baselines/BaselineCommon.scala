package repro.baselines

import org.apache.spark.sql.{Dataset, Encoders}
import repro.encoder.{TextEncoder, Vocab}
import repro.eval.Detection
import repro.util.Rng
import repro.video.{FrameRec, ObjRec}

/** Shared helpers for the baseline behavioural models. */
object BaselineCommon {

  /** The ranking pass of every per-keyframe baseline: run `detect` on each
    * keyframe as one Spark job, then keep the k best detections (score
    * descending, ties by frame id, then in scan order).
    */
  def topKeyframeDetections(frames: Dataset[FrameRec], k: Int)(
      detect: FrameRec => Seq[Detection]): Seq[Detection] =
    frames.filter(_.isKey)
      .flatMap(detect)(Encoders.product[Detection])
      .collect()
      .sortBy(d => (-d.score, d.frameId))
      .take(k)
      .toSeq

  /** The query's class token if a closed-set (MSCOCO) detector knows the
    * class; None for a novel class or a query without one.
    */
  def cocoClass(parsed: TextEncoder.ParsedQuery): Option[String] =
    parsed.tokens.find(Vocab.category(_) == Vocab.Cls)
      .filter(t => Vocab.MscocoClasses.contains(Vocab.value(t)))

  /** The visually dominant object of a frame (largest area). */
  def largestObject(fr: FrameRec): Option[ObjRec] =
    if (fr.objects.isEmpty) None else Some(fr.objects.maxBy(o => (o.w * o.h, -o.objId)))

  /** Small deterministic score jitter in [-0.5, 0.5). */
  def jitter(key: Long, salt: Long): Double = Rng.uniform(key, salt) - 0.5
}
