package repro.pq

import org.apache.spark.rdd.RDD
import repro.util.{Rng, VecOps}

/** Lloyd's iteration (paper §V-B, [32]) on the driver.
  *
  * Trains the P product-quantization codebooks *jointly* on a learning set
  * held in memory, as Jégou et al. [31] do: the vectors are collected once,
  * and each iteration assigns every subvector and recomputes the per-cluster
  * means on the driver. So training runs one Spark job (the collect)
  * whatever `iters` is. The collection must fit in driver memory: D' = 32
  * floats per vector, about 44 MB for the 345,600 entries of the largest
  * bench build. Assignment uses Euclidean distance in each m-dimensional
  * subspace, as in the paper.
  *
  * The codebooks are a function of the vectors alone: the collected vectors
  * are put in content order before anything reads them, so neither the
  * partitioning nor the order of the collection changes a coordinate.
  */
object KMeans {

  /** Lloyd iterations of a training run, and the initial-centroid seed. */
  val Iters = 8
  val Seed = 42L

  /** Index of the L2-nearest centroid for an m-dim subvector. */
  def nearest(codebook: Array[Array[Float]], v: Array[Float]): Int = {
    var best = 0; var bestD = Double.MaxValue; var c = 0
    while (c < codebook.length) {
      val d = VecOps.l2(codebook(c), v)
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    best
  }

  /** Train P codebooks of M centroids each over `vecs` (dim = P*m).
    *
    * The collected vectors are sorted by content (lexicographic
    * `Float.compare`, so equal vectors are interchangeable). The initial
    * centroids are the M vectors with the smallest seeded hash of their
    * content, ties in content order; jittered copies pad out degenerate
    * inputs with fewer than M points. Each iteration sums the vectors in
    * content order, in doubles.
    */
  def trainProduct(vecs: RDD[Array[Float]], P: Int, m: Int, M: Int,
                   iters: Int = Iters, seed: Long = Seed): Array[Array[Array[Float]]] = {
    require(P >= 1 && m >= 1 && M >= 1, s"P, m and M must be at least 1, got P=$P m=$m M=$M")
    require(iters >= 1, "need at least one Lloyd iteration")
    val dim = P * m
    val data = vecs.collect()
    require(data.nonEmpty, "cannot train PQ codebooks on an empty collection")
    require(data.forall(_.length == dim), s"expected vectors of dim $dim")
    java.util.Arrays.sort(data, (a: Array[Float], b: Array[Float]) => java.util.Arrays.compare(a, b))
    val hash = data.map(v => Rng.mix(seed, java.util.Arrays.hashCode(v).toLong))
    // a stable sort: equal hashes keep content order
    val sample = data.indices.sortBy(hash(_)).take(M).map(data).toArray
    val init: Array[Array[Float]] =
      if (sample.length >= M) sample
      else {
        val pad = Array.tabulate(M - sample.length) { i =>
          val base = sample(i % sample.length)
          Array.tabulate(dim)(j =>
            (base(j) + 0.01 * Rng.gaussian(Rng.mix(seed, i.toLong), j.toLong)).toFloat)
        }
        sample ++ pad
      }

    var centroids: Array[Array[Array[Float]]] =
      Array.tabulate(P, M)((p, c) => VecOps.subvector(init(c), p, m))

    for (_ <- 0 until iters) {
      val sums = Array.fill(P, M, m)(0.0)
      val counts = Array.fill(P, M)(0L)
      for (v <- data; p <- 0 until P) {
        val sub = VecOps.subvector(v, p, m)
        val c = nearest(centroids(p), sub)
        counts(p)(c) += 1
        var i = 0
        while (i < m) { sums(p)(c)(i) += sub(i); i += 1 }
      }
      centroids = Array.tabulate(P, M) { (p, c) =>
        if (counts(p)(c) == 0L) centroids(p)(c) // keep empty clusters in place
        else Array.tabulate(m)(i => (sums(p)(c)(i) / counts(p)(c)).toFloat)
      }
    }
    centroids
  }
}
