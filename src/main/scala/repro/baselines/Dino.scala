package repro.baselines

import org.apache.spark.sql.Dataset
import repro.encoder.TextEncoder
import repro.eval.Detection
import repro.rerank.{CrossModalRerank, RerankParams}
import repro.video.FrameRec

/** Grounding-DINO-style vision-based baseline (paper [26], Fig 2's
  * "Vision-based" family).
  *
  * An open-vocabulary detector with full text-image cross-attention, run
  * query-dependently over EVERY keyframe — no index, no fast search. It
  * understands the complete sentence (relations included), so accuracy is
  * high across all query classes, but each query pays a transformer pass
  * per frame (CostModel.dinoSearch): §II's "high computational resource
  * requirements and significant inference time".
  */
object Dino {

  def search(frames: Dataset[FrameRec], parsed: TextEncoder.ParsedQuery,
             k: Int, params: RerankParams = RerankParams()): Seq[Detection] = {
    val textTokens = TextEncoder.rerankTokenEmbeddings(parsed).toArray
    BaselineCommon.topKeyframeDetections(frames, k) { fr =>
      val (_, objs) = CrossModalRerank.rerankFrame(fr, textTokens, params)
      objs.map(o => Detection(o.frameId, o.score, o.box))
    }
  }
}
