package repro.encoder

import repro.util.{Rng, VecOps}

/** Stand-in for the paper's aligned dual encoders (ViT-B/32 + text
  * transformer, Owl-ViT style).
  *
  * Each vocabulary token maps to a deterministic Gaussian direction in a
  * D-dimensional "concept" space. An object's visual embedding is the
  * normalized sum of its token directions plus per-object Gaussian noise
  * (the encoder's epistemic error); the text encoder embeds parsed query
  * tokens with no noise. A fixed random projection D -> D' plays the role
  * of the classification head that produces the compact class embeddings
  * the vector database stores (paper §IV-C).
  *
  * The contract this preserves: cosine similarity in the projected space
  * is a noisy monotone function of token-set overlap — exactly the
  * property the paper's fast search and rerank exploit.
  */
object SemanticSpace {

  /** Concept-space dimension (paper: D = 768 for ViT-B/32). */
  val D = 48

  /** Class-embedding dimension after the projection head (paper: D' < D). */
  val Dp = 32

  private val tokenSeed = 0x70C4B17AL
  private val projSeed  = 0x9A3F11E2L

  private val cache = new java.util.concurrent.ConcurrentHashMap[String, Array[Float]]()

  /** Deterministic unit direction for a vocabulary token. */
  def tokenVec(token: String): Array[Float] =
    cache.computeIfAbsent(token, t => {
      val key = Rng.mix(Rng.hashString(t), tokenSeed)
      val v = Array.tabulate(D)(i => Rng.gaussian(key, i.toLong).toFloat)
      VecOps.normalize(v)
    })

  /** Fixed Dp x D projection (the classification head's weights).
    *
    * Rows are Gram-Schmidt-orthonormalized Gaussian draws: a trained
    * bottleneck head approximately preserves inner products on its input
    * manifold, and an orthonormal projection is the noise-free analogue —
    * cosine distortion then comes only from the discarded D - D'
    * dimensions, not from row correlations.
    */
  lazy val projection: Array[Array[Float]] = {
    val rows = Array.tabulate(Dp)(r =>
      Array.tabulate(D)(c => Rng.gaussian(Rng.mix(projSeed, r.toLong), c.toLong)))
    // modified Gram-Schmidt in double precision
    for (r <- 0 until Dp) {
      for (p <- 0 until r) {
        val proj = (0 until D).map(i => rows(r)(i) * rows(p)(i)).sum
        for (i <- 0 until D) rows(r)(i) -= proj * rows(p)(i)
      }
      val n = math.sqrt(rows(r).map(x => x * x).sum)
      require(n > 1e-9, s"degenerate projection row $r")
      for (i <- 0 until D) rows(r)(i) /= n
    }
    rows.map(_.map(_.toFloat))
  }

  /** Apply the projection head: R^D -> R^Dp. */
  def project(v: Array[Float]): Array[Float] = {
    require(v.length == D, s"expected dim $D, got ${v.length}")
    val out = new Array[Float](Dp)
    var r = 0
    while (r < Dp) { out(r) = VecOps.dot(projection(r), v).toFloat; r += 1 }
    out
  }

  /** Visual-evidence weight of a token category: spatial relations,
    * positions, and behaviours leave weaker traces in visual features
    * than classes/colours/attributes — the reason complex relational
    * queries stay hard even for the cross-modality rerank (the paper's
    * Table IV: Q2.2 tops out at 0.29 AveP). Single-token (text-side)
    * embeddings are normalized afterwards, so the weight only shapes
    * multi-token visual embeddings.
    */
  def tokenWeight(token: String): Double = Vocab.category(token) match {
    case Vocab.Rel | Vocab.Loc => 0.05 // spatial structure: weakest visual trace
    case Vocab.Act             => 0.60 // behaviours: moderately visible
    case _                     => 1.0  // class / colour / attribute / context
  }

  /** Weighted sum of token directions in concept space (unnormalized). */
  def tokenSum(tokens: Seq[String]): Array[Float] = {
    val acc = new Array[Float](D)
    for (t <- tokens) {
      val tv = tokenVec(t)
      val w = tokenWeight(t)
      var i = 0; while (i < D) { acc(i) += (w * tv(i)).toFloat; i += 1 }
    }
    acc
  }

  /** Noisy embedding of a token set, projected to D' and normalized.
    *
    * @param noiseKey stable identity of the embedded thing (object id,
    *                 patch id); the same key always yields the same noise
    * @param sigma    per-dimension Gaussian noise scale in concept space
    */
  def embedTokens(tokens: Seq[String], noiseKey: Long, sigma: Double): Array[Float] = {
    val s = tokenSum(tokens)
    if (sigma > 0) {
      var i = 0
      while (i < D) { s(i) = (s(i) + sigma * Rng.gaussian(noiseKey, 0x3000L + i)).toFloat; i += 1 }
    }
    VecOps.normalize(project(s))
  }

  /** Noise-free text-side embedding of a token set (aligned encoder). */
  def embedText(tokens: Seq[String]): Array[Float] = embedTokens(tokens, 0L, 0.0)
}
