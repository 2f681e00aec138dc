package repro.baselines

import org.apache.spark.sql.Dataset
import repro.encoder.{SemanticSpace, TextEncoder}
import repro.eval.Detection
import repro.util.{Rng, VecOps}
import repro.video.{DatasetConfig, FrameRec}
import repro.vit.BBox

/** VISA-style video reasoning segmentation baseline (paper [48]).
  *
  * A vision encoder + LLM reasons over every keyframe and segments the
  * object it believes the instruction refers to. On everyday-life footage
  * (its training distribution: QVHighlights / ActivityNet style) the
  * selection is accurate with tight masks; on traffic-camera footage it
  * frequently latches onto the wrong object — §VII-B's "performs poorly
  * on the other traffic scenes datasets". Either way every keyframe costs
  * an LLM pass (CostModel.visaSearch).
  */
object Visa {

  def search(frames: Dataset[FrameRec], cfg: DatasetConfig,
             parsed: TextEncoder.ParsedQuery, k: Int): Seq[Detection] = {
    val q = SemanticSpace.embedText(parsed.tokens)
    val (wrongProb, scoreSigma, boxNoise) =
      if (cfg.traffic) (0.55, 0.30, 0.15) else (0.10, 0.10, 0.06)

    BaselineCommon.topKeyframeDetections(frames, k) { fr =>
      if (fr.objects.isEmpty) Seq.empty
      else {
        val scored = fr.objects.map { o =>
          val emb = SemanticSpace.embedTokens(o.tokens, Rng.mix(o.objId, 0x71A5L), 0.2)
          (o, VecOps.dot(emb, q))
        }
        val best = scored.maxBy { case (o, s) => (s, -o.objId) }
        val fKey = Rng.mix(fr.frameId, 0x71A5L)
        val pick =
          if (Rng.uniform(fKey, 0x1L) < wrongProb)
            scored(Rng.int(fKey, 0x2L, scored.size)) // wrong-object latch
          else best
        val score = pick._2 + scoreSigma * Rng.gaussian(fKey, 0x3L)
        Seq(Detection(fr.frameId, score, BBox.noisy(pick._1, boxNoise, 0x71A5L)))
      }
    }
  }
}
