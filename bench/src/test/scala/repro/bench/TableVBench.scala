package repro.bench

import repro.SparkSpec
import repro.eval.tables.{TableFmt, TableV}

/** Table V — ANN variants (BF / IVF-PQ / HNSW) on Cityscapes. Shape:
  *  - BF delivers top accuracy at the highest fast-search cost
  *  - HNSW answers with the fewest distance computations but pays the
  *    biggest index-build bill (total ordering: HNSW build > IVF > BF=0)
  *  - search time is rerank-dominated, so variants stay within ~20%
  */
class TableVBench extends SparkSpec {

  private lazy val rows = TableV.run(BenchFixtures.bundles)

  private def run(v: String, q: String) =
    rows.find(r => r.variant == v && r.queryId == q).get.run

  test("Table V: publish ANN-variant comparison") {
    TableFmt.publish("table5", TableV.render(rows))
    assert(rows.size == 12)
  }

  test("BF accuracy is at least on par with the approximate variants") {
    for (q <- TableV.queries) {
      val bf = run("BF", q).avep
      assert(bf >= run("IVF-PQ", q).avep - 0.12, s"$q: BF $bf vs IVF")
      assert(bf >= run("HNSW", q).avep - 0.12, s"$q: BF $bf vs HNSW")
    }
  }

  test("fast-search latency: BF > IVF-PQ and BF > HNSW") {
    // overhead-dominated at reduced scale; assert at the paper calibration
    assume(BenchFixtures.scale >= 1.0)
    for (q <- TableV.queries) {
      assert(run("BF", q).fastSec > run("IVF-PQ", q).fastSec, s"$q: BF vs IVF fast")
      assert(run("BF", q).fastSec > run("HNSW", q).fastSec, s"$q: BF vs HNSW fast")
    }
  }

  test("index build cost: HNSW > IVF-PQ > BF (= 0)") {
    val q = TableV.queries.head
    assert(run("HNSW", q).indexingSec > run("IVF-PQ", q).indexingSec)
    assert(run("IVF-PQ", q).indexingSec > 0.0)
    assert(run("BF", q).indexingSec == 0.0)
  }

  test("search time is rerank-dominated: variants agree within 25%") {
    for (q <- TableV.queries) {
      val times = Seq(run("BF", q), run("IVF-PQ", q), run("HNSW", q)).map(_.searchSec)
      assert(times.max / times.min < 1.25,
        s"$q: search spread ${times.mkString(",")}")
    }
  }

  test("per-query search ordering follows the retrieval size (Q1.4 > Q1.2 > Q1.1)") {
    for (v <- Seq("BF", "IVF-PQ", "HNSW")) {
      assert(run(v, "Q1.4").searchSec > run(v, "Q1.2").searchSec, s"$v Q1.4 vs Q1.2")
      assert(run(v, "Q1.2").searchSec > run(v, "Q1.1").searchSec, s"$v Q1.2 vs Q1.1")
    }
  }
}
