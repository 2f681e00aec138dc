package repro.rerank

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.encoder.{SemanticSpace, TextEncoder}
import repro.util.Rng
import repro.vit.BBox
import repro.video.{FrameBlock, FrameRec}

/** One reranked object detection (frame + refined box + fused score). */
final case class RerankedObject(frameId: Long, objId: Long, score: Double, box: BBox)

/** Rerank output plus the operation counts the cost model consumes. */
final case class RerankResult(
    objects: Seq[RerankedObject],
    frameScores: Seq[(Long, Double)], // frameId -> l_s, descending
    framesProcessed: Int,
    totalImageTokens: Long,
    textTokens: Int)

/** Fine-feature noise of the rerank's visual branch (σ_fine << σ_vis) and
  * its decoder's localization error.
  */
final case class RerankParams(sigmaFine: Double = 0.06, boxNoise: Double = 0.05)

/** Cross-modality rerank (paper §VI-B, Algorithm 2 stage 2).
  *
  * The top-k frames from fast search are re-processed from the raw video
  * (here: the frame's full object population) with fine-grained per-object
  * features and the *complete* query token set — including the relation /
  * verb / positional tokens that fast search dropped. An image-to-text
  * cross-attention layer fuses the modalities; the frame score l_s is the
  * best fused image-token/text affinity, and the decoder emits a refined
  * box per object. Runs as one plain, narrow Spark job over the cached
  * frame blocks ([[repro.video.FrameBlock.scan]], one task per core): each
  * block binary-searches its frame ids for the candidates and decodes and
  * reranks only those frames.
  */
object CrossModalRerank {

  /** Residual weight of the image-to-text cross-attention layer. */
  val ResidualAlpha = 0.5

  /** Salt of the decoder's refined-box error ([[repro.vit.BBox.noisy]]). */
  val BoxSalt = 0xDEC0L

  /** Rerank one frame (pure; exposed for tests). Returns (l_s, objects).
    *
    * Image tokens are per-object fine embeddings; the image-to-text
    * cross-attention adds a damped residual (X_I' = X_I + α·Attn) and the
    * object logit is the mean affinity of the enhanced image token to the
    * raw text tokens. The residual is NOT renormalized: the attended
    * component depends only on the (fixed) text side up to the softmax
    * weights, so logits stay comparable across frames — a per-frame
    * normalization would let a frame's object population shift its
    * scores relative to other frames.
    */
  def rerankFrame(fr: FrameRec, textTokens: Array[Array[Float]],
                  params: RerankParams): (Double, Seq[RerankedObject]) = {
    if (fr.objects.isEmpty || textTokens.isEmpty) return (Double.NegativeInfinity, Seq.empty)
    val xi: Array[Array[Float]] = fr.objects.map { o =>
      SemanticSpace.embedTokens(o.tokens, Rng.mix(o.objId, 0xF1AEL), params.sigmaFine)
    }.toArray
    val attended = Attention.attend(xi, textTokens, textTokens)
    val objs = fr.objects.zipWithIndex.map { case (o, i) =>
      var s = 0.0
      var t = 0
      while (t < textTokens.length) {
        s += repro.util.VecOps.dot(xi(i), textTokens(t)) +
          ResidualAlpha * repro.util.VecOps.dot(attended(i), textTokens(t))
        t += 1
      }
      RerankedObject(fr.frameId, o.objId, s / textTokens.length,
        BBox.noisy(o, params.boxNoise, BoxSalt))
    }
    (objs.map(_.score).max, objs)
  }

  /** Rerank the given candidate frames against the full parsed query. The
    * result does not depend on the order of `candidateFrames` or on
    * repeated ids; ids of frames the blocks lack are ignored.
    */
  def rerank(frames: RDD[FrameBlock], candidateFrames: Seq[Long],
             parsed: TextEncoder.ParsedQuery, params: RerankParams): RerankResult = {
    val ids = candidateFrames.distinct.toArray.sorted
    if (ids.isEmpty)
      return RerankResult(Seq.empty, Seq.empty, 0, 0L, parsed.allTokens.size)
    val textTokens: Array[Array[Float]] =
      TextEncoder.rerankTokenEmbeddings(parsed).toArray

    val perFrame: Array[(Long, Double, Seq[RerankedObject], Int)] =
      FrameBlock.scan(frames) { b =>
        ids.map(b.indexOf).filter(_ >= 0).map { i =>
          val fr = b.frame(i)
          val (ls, objs) = rerankFrame(fr, textTokens, params)
          (fr.frameId, ls, objs, fr.objects.size)
        }
      }.flatten

    val frameScores = perFrame.map { case (fid, ls, _, _) => (fid, ls) }
      .sortBy { case (fid, ls) => (-ls, fid) }.toSeq
    val objects = perFrame.flatMap(_._3)
      .sortBy(o => (-o.score, o.frameId, o.objId)).toSeq
    RerankResult(
      objects = objects,
      frameScores = frameScores,
      framesProcessed = perFrame.length,
      totalImageTokens = perFrame.map(_._4.toLong).sum,
      textTokens = textTokens.length)
  }

  /** [[rerank]] over uncached blocks of a frames Dataset, packed per call. */
  def rerank(frames: Dataset[FrameRec], candidateFrames: Seq[Long],
             parsed: TextEncoder.ParsedQuery,
             params: RerankParams = RerankParams()): RerankResult =
    rerank(FrameBlock.blocks(frames), candidateFrames, parsed, params)
}
