package repro.baselines

import org.apache.spark.sql.Dataset
import repro.encoder.{SemanticSpace, TextEncoder, Vocab}
import repro.eval.Detection
import repro.util.{Rng, VecOps}
import repro.video.FrameRec
import repro.vit.BBox

/** ZELDA-style vision-language baseline (paper [44]).
  *
  * CLIP ranks whole frames by global image/text similarity: the frame
  * embedding mixes every object and the scene into one vector, so small
  * objects and fine-grained attributes are diluted — §VII-B's "performs
  * well for global descriptions but struggles with detailed context".
  * Localization comes from coarse CLIP attention: the most query-similar
  * object of the frame, with a sloppy ("largest but incomplete", Fig 7)
  * box.
  */
object Zelda {

  /** Global CLIP-style frame embedding: all object + scene tokens, one
    * noisy pooled vector.
    */
  def frameEmbedding(fr: FrameRec): Array[Float] = {
    val tokens = fr.objects.flatMap(_.tokens) :+ Vocab.token(Vocab.Ctx, "scene")
    SemanticSpace.embedTokens(tokens, fr.frameId, sigma = 0.45)
  }

  def search(frames: Dataset[FrameRec], parsed: TextEncoder.ParsedQuery,
             k: Int): Seq[Detection] = {
    val q = SemanticSpace.embedText(parsed.tokens) // full-sentence encoding
    BaselineCommon.topKeyframeDetections(frames, k) { fr =>
      val score = VecOps.dot(frameEmbedding(fr), q)
      // coarse attention localization: query-similar object, sloppy box
      val pick =
        if (fr.objects.isEmpty) None
        else Some(fr.objects.maxBy { o =>
          val e = SemanticSpace.embedTokens(o.tokens, Rng.mix(o.objId, 0x2E1DAL), 0.5)
          (VecOps.dot(e, q), -o.objId)
        })
      pick.map(o => Detection(fr.frameId, score, BBox.noisy(o, 0.22, 0x2E1DAL))).toSeq
    }
  }
}
