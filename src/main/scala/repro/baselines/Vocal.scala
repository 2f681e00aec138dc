package repro.baselines

import org.apache.spark.sql.Dataset
import repro.encoder.TextEncoder
import repro.eval.Detection
import repro.video.FrameRec
import repro.vit.BBox

/** VOCAL-style QA-index baseline (paper [21], [45], [46]).
  *
  * A query-agnostic spatio-temporal index built offline by a closed-set
  * detector: it knows (class, frame, box) for the MSCOCO label set and
  * nothing else. A query resolves to its class token; attribute, colour,
  * relation, and verb constraints cannot be expressed, so all instances
  * of the class are returned in arbitrary (jitter) order, and any novel
  * class ("SUV", "woman") yields no results at all — the failure modes
  * §II attributes to QA-index methods.
  */
object Vocal {

  /** Ranked detections for a query against the prebuilt class index. */
  def search(frames: Dataset[FrameRec], parsed: TextEncoder.ParsedQuery,
             k: Int): Seq[Detection] = {
    BaselineCommon.cocoClass(parsed) match {
      case Some(wanted) =>
        BaselineCommon.topKeyframeDetections(frames, k) { fr =>
          fr.objects.filter(_.tokens.contains(wanted)).map(o =>
            Detection(fr.frameId, 0.5 + BaselineCommon.jitter(o.objId, 0x11L),
              BBox.noisy(o, 0.08, 0x0CA1L)))
        }
      case None => Seq.empty // outside the predefined label set: index miss
    }
  }
}
