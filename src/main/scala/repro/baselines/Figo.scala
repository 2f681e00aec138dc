package repro.baselines

import org.apache.spark.sql.Dataset
import repro.encoder.TextEncoder
import repro.eval.Detection
import repro.util.Rng
import repro.video.FrameRec
import repro.vit.BBox

/** FiGO-style QD-search baseline (paper [17]).
  *
  * A fine-grained query optimizer over an ensemble of detection models:
  * more of the query's key phrases (class, colour, attribute, context)
  * can be checked than MIRIS manages, at the cost of invoking several
  * models per frame per query (CostModel.figoSearch — the 85x search-time
  * gap of §VII-C). Spatial relations and verbs still need retraining and
  * are ignored.
  */
object Figo {

  def search(frames: Dataset[FrameRec], parsed: TextEncoder.ParsedQuery,
             k: Int): Seq[Detection] = {
    val cls = BaselineCommon.cocoClass(parsed)
    if (cls.isEmpty) return Seq.empty
    val wanted = cls.get
    val fast = parsed.fastTokens
    BaselineCommon.topKeyframeDetections(frames, k) { fr =>
      fr.objects.filter(_.tokens.contains(wanted)).map { o =>
        val frac =
          if (fast.isEmpty) 1.0
          else fast.count(o.tokens.contains).toDouble / fast.size
        // the ensemble's per-attribute verdicts are accurate (low noise);
        // what it cannot do is express relations/verbs at all
        val score = 0.3 + 0.6 * frac + 0.06 * Rng.gaussian(Rng.mix(o.objId, 0xF160L), 9L)
        Detection(fr.frameId, score, BBox.noisy(o, 0.07, 0xF160L))
      }
    }
  }
}
