package repro.pq

import org.apache.spark.rdd.RDD
import repro.util.VecOps

/** Product Quantization (paper §V-B, Jégou et al. [31]).
  *
  * The D'-dimensional class-embedding space is split into P subspaces of
  * dim m; each subspace has its own M-centroid codebook. A vector encodes
  * to P codes; the Cartesian product of codes addresses a cell of the
  * inverted multi-index. Queries score candidates asymmetrically (ADC):
  * a per-subspace lookup table of q·centroid dot products makes the
  * approximate score a table sum.
  */
final case class ProductQuantizer(
    P: Int,
    m: Int,
    M: Int,
    codebooks: Array[Array[Array[Float]]]) {

  require(P >= 1 && m >= 1 && M >= 1, s"P, m and M must be at least 1, got P=$P m=$m M=$M")
  require(codebooks.length == P, s"expected $P codebooks, got ${codebooks.length}")
  require(codebooks.forall(_.length == M), s"every codebook must hold $M centroids")
  require(codebooks.forall(_.forall(_.length == m)), s"centroids must have dim $m")
  require(BigInt(M).pow(P) <= Long.MaxValue,
    s"cell ids pack P=$P codes in base M=$M into a Long, so M^P must be at most ${Long.MaxValue}")

  /** Full vector dimension D' = P * m. */
  def dim: Int = P * m

  /** Per-subspace nearest-centroid codes of a vector. */
  def encode(v: Array[Float]): Array[Int] = {
    require(v.length == dim, s"expected dim $dim, got ${v.length}")
    Array.tabulate(P)(p => KMeans.nearest(codebooks(p), VecOps.subvector(v, p, m)))
  }

  /** Pack codes into the multi-index cell id (base-M positional). */
  def cellId(codes: Array[Int]): Long = {
    require(codes.length == P, s"expected $P codes")
    codes.foldLeft(0L) { (acc, c) =>
      require(c >= 0 && c < M, s"code $c out of [0, $M)")
      acc * M + c
    }
  }

  /** Inverse of [[cellId]]. */
  def decodeCell(cell: Long): Array[Int] = {
    require(cell >= 0, s"cell id $cell out of range")
    val out = new Array[Int](P)
    var rest = cell
    var p = P - 1
    while (p >= 0) { out(p) = (rest % M).toInt; rest /= M; p -= 1 }
    require(rest == 0, s"cell id $cell out of range for M=$M, P=$P")
    out
  }

  /** ADC lookup table: lut(p)(c) = q_p · centroid_{c,p}. */
  def lut(q: Array[Float]): Array[Array[Double]] = {
    require(q.length == dim, s"expected dim $dim, got ${q.length}")
    Array.tabulate(P) { p =>
      val qp = VecOps.subvector(q, p, m)
      Array.tabulate(M)(c => VecOps.dot(qp, codebooks(p)(c)))
    }
  }

  /** Approximate (quantized) inner-product score from codes + LUT. */
  def adcScore(table: Array[Array[Double]], codes: Array[Int]): Double = {
    var s = 0.0; var p = 0
    while (p < P) { s += table(p)(codes(p)); p += 1 }
    s
  }
}

object ProductQuantizer {
  /** Train codebooks with the joint Lloyd pass of [[KMeans.trainProduct]],
    * on the driver over the collected vectors; `vecs` must not be empty.
    */
  def train(vecs: RDD[Array[Float]], P: Int, m: Int, M: Int,
            iters: Int = KMeans.Iters): ProductQuantizer =
    ProductQuantizer(P, m, M, KMeans.trainProduct(vecs, P, m, M, iters))
}
