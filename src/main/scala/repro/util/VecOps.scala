package repro.util

/** Dense float-vector primitives used by encoders, PQ, and ANN search.
  *
  * Vectors are `Array[Float]` (storage) with `Double` accumulation (math),
  * matching how a vector database stores fp32 embeddings. All functions
  * are allocation-disciplined: hot-path ops (dot, l2) allocate nothing.
  */
object VecOps {

  def dot(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    dotAt(a, b, 0)
  }

  /** `a` dotted with the `a.length` floats of `b` that start at `offset`,
    * summed in the order of [[dot]]: a vector stored inside a flat array
    * is scored in place, without copying it out.
    */
  def dotAt(a: Array[Float], b: Array[Float], offset: Int): Double = {
    require(offset >= 0 && offset + a.length <= b.length,
      s"dim ${a.length} at offset $offset exceeds ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i).toDouble * b(offset + i); i += 1 }
    s
  }

  def norm(a: Array[Float]): Double = math.sqrt(dot(a, a))

  /** L2 distance (not squared). */
  def l2(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i).toDouble - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Unit-normalized copy; zero vectors come back zero (not NaN). */
  def normalize(a: Array[Float]): Array[Float] = {
    val n = norm(a)
    if (n < 1e-12) a.clone()
    else { val out = new Array[Float](a.length); var i = 0
           while (i < a.length) { out(i) = (a(i) / n).toFloat; i += 1 }; out }
  }

  def add(a: Array[Float], b: Array[Float]): Array[Float] = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    val out = new Array[Float](a.length); var i = 0
    while (i < a.length) { out(i) = a(i) + b(i); i += 1 }
    out
  }

  def scale(a: Array[Float], c: Double): Array[Float] = {
    val out = new Array[Float](a.length); var i = 0
    while (i < a.length) { out(i) = (a(i) * c).toFloat; i += 1 }
    out
  }

  /** Slice p-th m-dim subvector out of a P*m vector. */
  def subvector(a: Array[Float], p: Int, m: Int): Array[Float] = {
    val out = new Array[Float](m)
    System.arraycopy(a, p * m, out, 0, m)
    out
  }
}
