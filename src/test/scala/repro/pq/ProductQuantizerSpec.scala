package repro.pq

import repro.SparkSpec
import repro.testkit.SparkWork
import repro.util.{Rng, VecOps}

class ProductQuantizerSpec extends SparkSpec {

  private val P = 4; private val m = 2; private val M = 4

  /** A hand-built quantizer with known codebooks. */
  private def handPq: ProductQuantizer = {
    val cb = Array.tabulate(P, M)((p, c) =>
      Array.tabulate(m)(j => (c + 0.1 * p + 0.01 * j).toFloat))
    ProductQuantizer(P, m, M, cb)
  }

  /** Centroid reconstruction of a code word (the quantization image). */
  private def reconstruct(pq: ProductQuantizer, codes: Array[Int]): Array[Float] =
    codes.zipWithIndex.flatMap { case (c, p) => pq.codebooks(p)(c) }

  test("constructor validates codebook shape") {
    intercept[IllegalArgumentException] {
      ProductQuantizer(P, m, M, Array.fill(P - 1, M, m)(0f))
    }
    intercept[IllegalArgumentException] {
      ProductQuantizer(P, m, M, Array.fill(P, M + 1, m)(0f))
    }
  }

  test("constructor rejects a shape with a zero P, m or M, naming it") {
    for ((p, sub, c) <- Seq((0, m, M), (P, 0, M), (P, m, 0))) {
      val e = intercept[IllegalArgumentException] {
        ProductQuantizer(p, sub, c, Array.fill(p, c, sub)(0f))
      }
      assert(e.getMessage.contains(s"P=$p m=$sub M=$c"), e.getMessage)
    }
  }

  test("the constructor rejects code spaces whose cell ids overflow a Long") {
    // 256^8 = 2^64: the all-255 code word would pack to -1.
    val e = intercept[IllegalArgumentException] {
      ProductQuantizer(8, 1, 256, Array.fill(8, 256, 1)(0f))
    }
    assert(e.getMessage.contains("P=8") && e.getMessage.contains("M=256"), e.getMessage)
    val wide = ProductQuantizer(4, 1, 300, Array.tabulate(4, 300, 1)((p, c, _) => (c + p).toFloat))
    val words = Seq(Array(0, 0, 0, 0), Array(299, 299, 299, 299), Array(256, 1, 298, 7), Array(255, 256, 0, 299))
    for (codes <- words) assert(wide.decodeCell(wide.cellId(codes)).toSeq == codes.toSeq)
    assert(wide.cellId(Array(299, 299, 299, 299)) == 300L * 300 * 300 * 300 - 1)
    assert(words.map(wide.cellId).distinct.size == words.size)
  }

  test("encode picks the nearest centroid per subspace") {
    val pq = handPq
    // subvector ~ (2.05, 2.06) in every subspace -> code 2
    val v = Array.tabulate(P * m)(i => (2.05 + 0.01 * (i % m)).toFloat)
    assert(pq.encode(v).toSeq == Seq(2, 2, 2, 2))
  }

  test("cellId and decodeCell are inverse bijections") {
    val pq = handPq
    for (a <- 0 until M; b <- 0 until M; c <- 0 until M; d <- 0 until M) {
      val codes = Array(a, b, c, d)
      assert(pq.decodeCell(pq.cellId(codes)).toSeq == codes.toSeq)
    }
  }

  test("cellId is injective over the code space") {
    val pq = handPq
    val cells = for (a <- 0 until M; b <- 0 until M; c <- 0 until M; d <- 0 until M)
      yield pq.cellId(Array(a, b, c, d))
    assert(cells.distinct.size == cells.size)
  }

  test("cellId rejects out-of-range codes") {
    intercept[IllegalArgumentException] { handPq.cellId(Array(0, 0, 0, M)) }
    intercept[IllegalArgumentException] { handPq.decodeCell(-1L) }
  }

  test("adcScore over LUT equals dot with the reconstruction") {
    val pq = handPq
    val q = Array.tabulate(P * m)(i => (0.3 * Rng.gaussian(1L, i.toLong)).toFloat)
    val v = Array.tabulate(P * m)(i => (1.5 + 0.2 * Rng.gaussian(2L, i.toLong)).toFloat)
    val codes = pq.encode(v)
    val viaLut = pq.adcScore(pq.lut(q), codes)
    val viaRec = VecOps.dot(q, reconstruct(pq, codes))
    assert(math.abs(viaLut - viaRec) < 1e-5)
  }

  test("reconstruct concatenates the chosen centroids") {
    val pq = handPq
    val rec = reconstruct(pq, Array(1, 2, 3, 0))
    assert(VecOps.subvector(rec, 0, m).toSeq == pq.codebooks(0)(1).toSeq)
    assert(VecOps.subvector(rec, 2, m).toSeq == pq.codebooks(2)(3).toSeq)
  }

  test("trained quantizer reduces residual norm vs vector norm") {
    val data = (0 until 800).map(i =>
      VecOps.normalize(Array.tabulate(8)(j => Rng.gaussian(i.toLong, j.toLong).toFloat)))
    val rdd = spark.sparkContext.parallelize(data, 4)
    val pq = ProductQuantizer.train(rdd, P = 4, m = 2, M = 8, iters = 6)
    val meanResidual =
      data.map(v => VecOps.l2(v, reconstruct(pq, pq.encode(v)))).sum / data.size
    assert(meanResidual < 0.6, s"mean residual norm $meanResidual (unit vectors)")
  }

  test("training runs the same Spark jobs whatever the number of Lloyd iterations") {
    val data = (0 until 400).map(i => Array.tabulate(8)(j => Rng.gaussian(i.toLong, j.toLong).toFloat))
    val rdd = spark.sparkContext.parallelize(data, 4)
    def jobs(iters: Int): Int =
      SparkWork.during(spark.sparkContext)(ProductQuantizer.train(rdd, 4, 2, 8, iters))._2.jobs
    val (one, eight) = (jobs(1), jobs(8))
    assert(one == eight, s"iters=1 ran $one jobs, iters=8 ran $eight")
  }

  test("lut rejects wrong query dim") {
    intercept[IllegalArgumentException] { handPq.lut(new Array[Float](3)) }
  }
}
