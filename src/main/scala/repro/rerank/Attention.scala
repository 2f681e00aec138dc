package repro.rerank

import repro.util.VecOps

/** Scaled dot-product attention primitives (paper §VI-B).
  *
  * The paper's Grounding-DINO-style feature enhancer fuses the modalities
  * with cross-attention. The rerank uses the image-to-text direction only
  * (Q from image tokens, K/V from text tokens) and adds its damped
  * residual in [[CrossModalRerank.rerankFrame]].
  */
object Attention {

  /** Numerically stable softmax. */
  def softmax(row: Array[Double]): Array[Double] = {
    require(row.nonEmpty, "softmax of empty row")
    val mx = row.max
    val exps = row.map(x => math.exp(x - mx))
    val z = exps.sum
    exps.map(_ / z)
  }

  /** Attention(Q, K, V) = softmax(Q K^T / sqrt(d)) V.
    *
    * @return one output row per query token (n x d)
    */
  def attend(qs: Array[Array[Float]], ks: Array[Array[Float]],
             vs: Array[Array[Float]]): Array[Array[Float]] = {
    require(ks.length == vs.length, "K and V must have the same length")
    if (qs.isEmpty || ks.isEmpty) return qs.map(_.clone())
    val d = qs(0).length
    val scale = 1.0 / math.sqrt(d.toDouble)
    qs.map { q =>
      val w = softmax(ks.map(kk => VecOps.dot(q, kk) * scale))
      val out = new Array[Float](d)
      var j = 0
      while (j < ks.length) {
        val wj = w(j); val v = vs(j)
        var i = 0
        while (i < d) { out(i) += (wj * v(i)).toFloat; i += 1 }
        j += 1
      }
      out
    }
  }
}
