package repro.core

import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.testkit.{Fixtures, PropertyChecks}

/** Recall@k of the ANN variants against the exact `BruteForce` scan on the
  * LOVO corpus (the Cityscapes fixture), over seeded random key-phrase
  * queries: a class, an optional colour and a scene context of the dataset,
  * with k drawn from Table II's range of 30 to 140.
  */
class AnnRecallSpec extends SparkSpec with PropertyChecks {

  private lazy val b = Fixtures.cityscapes

  /** Mean recall@k of IVF-PQ and of HNSW over `n` generated queries. */
  private def meanRecalls(n: Int): (Double, Double) = {
    val (ivf, hnsw) = (Array.newBuilder[Double], Array.newBuilder[Double])
    forAllGen(Fixtures.keyPhraseQueries(b.dataset), n) { case (text, k) =>
      val parsed = TextEncoder.parse(text)
      def ids(v: AnnVariant) = {
        val g = if (v == AnnVariant.Hnsw) Some(b.hnsw._1) else None
        val (cands, _) = Lovo.fastSearch(b.build, parsed, k, v, g)
        assert(cands.size == k, s"${AnnVariant.name(v)} '$text' k=$k")
        cands.map(_.patchId).toSet
      }
      val exact = ids(AnnVariant.Bf)
      ivf += ids(AnnVariant.IvfPq).intersect(exact).size.toDouble / k
      hnsw += ids(AnnVariant.Hnsw).intersect(exact).size.toDouble / k
    }
    (ivf.result().sum / n, hnsw.result().sum / n)
  }

  test("IVF-PQ and HNSW keep their recall@k against BruteForce on random key-phrase queries") {
    val (ivf, hnsw) = meanRecalls(40)
    // Measured on this fixture and seed: IVF-PQ 0.9992, HNSW 0.9542.
    assert(ivf >= 0.99, f"IVF-PQ mean recall@k $ivf%.4f")
    assert(hnsw >= 0.94, f"HNSW mean recall@k $hnsw%.4f")
  }
}
