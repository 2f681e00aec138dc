package repro.baselines

import org.apache.spark.sql.Dataset
import repro.encoder.{TextEncoder, Vocab}
import repro.eval.Detection
import repro.util.Rng
import repro.video.FrameRec
import repro.vit.BBox

/** MIRIS-style QD-search baseline (paper [24]).
  *
  * A query-driven object tracker: per query it configures a plan and runs
  * a class detector over the video, with a limited colour model bolted on.
  * It can honour the class and (noisily) one colour attribute, but no
  * fine attributes, relations, or verbs. Cost-wise it rescans the raw
  * video per query (CostModel.mirisSearch) — the QD-search latency
  * structure of §II.
  */
object Miris {

  def search(frames: Dataset[FrameRec], parsed: TextEncoder.ParsedQuery,
             k: Int): Seq[Detection] = {
    val cls = BaselineCommon.cocoClass(parsed)
    if (cls.isEmpty) return Seq.empty // unseen class: would require detector retraining
    val wanted = cls.get
    val cols = parsed.tokens.filter(Vocab.category(_) == Vocab.Col)
    BaselineCommon.topKeyframeDetections(frames, k) { fr =>
      fr.objects.filter(_.tokens.contains(wanted)).map { o =>
        // the tracker's colour model is weak (paper §VII-B: "limited
        // generality of their detection models"): colour evidence gets
        // little weight relative to detector noise
        val colFrac =
          if (cols.isEmpty) 1.0
          else cols.count(o.tokens.contains).toDouble / cols.size
        val score = 0.6 + 0.15 * colFrac + 0.30 * Rng.gaussian(Rng.mix(o.objId, 0x317BL), 9L)
        Detection(fr.frameId, score, BBox.noisy(o, 0.08, 0x317BL))
      }
    }
  }
}
