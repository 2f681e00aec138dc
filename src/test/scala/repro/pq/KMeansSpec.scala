package repro.pq

import repro.SparkSpec
import repro.testkit.SparkWork
import repro.util.{Rng, VecOps}

class KMeansSpec extends SparkSpec {

  test("nearest picks the closest centroid, ties to the lower index") {
    val cb = Array(Array(0f, 0f), Array(10f, 0f), Array(0f, 10f))
    assert(KMeans.nearest(cb, Array(1f, 1f)) == 0)
    assert(KMeans.nearest(cb, Array(9f, 0f)) == 1)
    assert(KMeans.nearest(cb, Array(5f, 0f)) == 0) // equidistant: first wins
  }

  /** Two tight, well-separated blobs per subspace. */
  private def blobs(n: Int, P: Int, m: Int): Seq[Array[Float]] =
    (0 until n).map { i =>
      val v = new Array[Float](P * m)
      for (p <- 0 until P) {
        val centre = if (Rng.uniform(i.toLong, p.toLong) < 0.5) -5f else 5f
        for (j <- 0 until m)
          v(p * m + j) = centre + (0.1 * Rng.gaussian(Rng.mix(i.toLong, p.toLong), j.toLong)).toFloat
      }
      v
    }

  test("trainProduct recovers separated blob centres") {
    val P = 2; val m = 3; val M = 2
    val data = blobs(400, P, m)
    val rdd = spark.sparkContext.parallelize(data, 4)
    val cb = KMeans.trainProduct(rdd, P, m, M, iters = 6)
    assert(cb.length == P && cb.forall(_.length == M) && cb.forall(_.forall(_.length == m)))
    for (p <- 0 until P) {
      val centres = cb(p).map(_(0).toDouble).sorted
      assert(math.abs(centres(0) - (-5.0)) < 0.5, s"subspace $p low centre ${centres(0)}")
      assert(math.abs(centres(1) - 5.0) < 0.5, s"subspace $p high centre ${centres(1)}")
    }
  }

  test("training is deterministic in the seed") {
    val data = blobs(200, 2, 2)
    val rdd = spark.sparkContext.parallelize(data, 3)
    val a = KMeans.trainProduct(rdd, 2, 2, 4, iters = 3, seed = 9L)
    val b = KMeans.trainProduct(rdd, 2, 2, 4, iters = 3, seed = 9L)
    assert(a.flatten.flatten.toSeq == b.flatten.flatten.toSeq)
  }

  test("more centroids than points pads deterministically without NaN") {
    val data = blobs(3, 1, 2)
    val rdd = spark.sparkContext.parallelize(data, 1)
    val cb = KMeans.trainProduct(rdd, 1, 2, 8, iters = 2)
    assert(cb(0).length == 8)
    assert(cb(0).forall(_.forall(f => !f.isNaN)))
  }

  test("quantization error decreases with more centroids") {
    val P = 1; val m = 4
    val data = (0 until 500).map(i =>
      Array.tabulate(m)(j => Rng.gaussian(i.toLong, j.toLong).toFloat))
    val rdd = spark.sparkContext.parallelize(data, 4)
    def err(M: Int): Double = {
      val cb = KMeans.trainProduct(rdd, P, m, M, iters = 6)
      data.map(v => VecOps.l2(cb(0)(KMeans.nearest(cb(0), v)), v)).sum / data.size
    }
    val e2 = err(2); val e16 = err(16)
    assert(e16 < e2, s"err(16)=$e16 should beat err(2)=$e2")
  }

  test("an empty collection is rejected, naming it") {
    val rdd = spark.sparkContext.parallelize(Seq.empty[Array[Float]], 2)
    val e = intercept[IllegalArgumentException] { KMeans.trainProduct(rdd, 1, 2, 4, iters = 2) }
    assert(e.getMessage.contains("empty collection"), e.getMessage)
    intercept[IllegalArgumentException] { ProductQuantizer.train(rdd, 1, 2, 4, iters = 2) }
  }

  test("every collected vector's dimension is checked, not only the initial sample's") {
    val P = 2; val m = 2; val M = 2
    val data = blobs(200, P, m)
    for (odd <- Seq(Array.fill(P * m + 1)(1f), Array.fill(P * m - 1)(1f));
         vecs <- Seq(data :+ odd, odd +: data)) {
      val rdd = spark.sparkContext.parallelize(vecs, 4)
      val e = intercept[IllegalArgumentException] { KMeans.trainProduct(rdd, P, m, M, iters = 2) }
      assert(e.getMessage.contains(s"dim ${P * m}"), e.getMessage)
    }
  }

  test("the codebooks are a function of the vectors alone: any partitioning or order trains the same bits") {
    val P = 2; val m = 3; val M = 8
    val distinct = (0 until 300).map(i =>
      Array.tabulate(P * m)(j => Rng.gaussian(Rng.mix(i.toLong, 3L), j.toLong).toFloat))
    val data = distinct ++ distinct.take(30).map(_.clone) // equal vectors are interchangeable
    def bits(vecs: Seq[Array[Float]], parts: Int): Seq[Int] =
      KMeans.trainProduct(spark.sparkContext.parallelize(vecs, parts), P, m, M, iters = 3)
        .flatten.flatten.map(java.lang.Float.floatToRawIntBits).toSeq
    val reference = bits(data, 1)
    for (parts <- Seq(1, 3, 7); vecs <- Seq(data, data.reverse))
      assert(bits(vecs, parts) == reference, s"$parts partitions, ${if (vecs eq data) "forward" else "reversed"}")
  }

  test("iters must be positive") {
    val rdd = spark.sparkContext.parallelize(blobs(10, 1, 2), 1)
    intercept[IllegalArgumentException] { KMeans.trainProduct(rdd, 1, 2, 2, iters = 0) }
  }

  test("an empty codebook (M = 0) is rejected before the collect, naming M") {
    val rdd = spark.sparkContext.parallelize(blobs(10, 1, 2), 1)
    val (e, work) = SparkWork.during(spark.sparkContext) {
      intercept[IllegalArgumentException] { KMeans.trainProduct(rdd, 1, 2, 0, iters = 2) }
    }
    assert(e.getMessage.contains("M=0"), e.getMessage)
    assert(work.jobs == 0)
  }
}
