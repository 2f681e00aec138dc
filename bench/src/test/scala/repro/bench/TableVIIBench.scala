package repro.bench

import repro.SparkSpec
import repro.eval.tables.{TableFmt, TableVII}

/** Table VII — LOVO on the ActivityNet-QA extension workload. Shape:
  *  - LOVO finds the planted targets (AveP well above chance)
  *  - search cost is far above the other datasets' (~130 s in the paper)
  *    because the QA queries retrieve 10x a much larger ground truth
  */
class TableVIIBench extends SparkSpec {

  private lazy val rows = TableVII.run(BenchFixtures.bundles)

  test("Table VII: publish ActivityNet-QA results") {
    TableFmt.publish("table7", TableVII.render(rows))
    assert(rows.size == 4)
  }

  test("LOVO retrieves the QA targets with solid accuracy (paper: 0.72-0.99)") {
    for (r <- rows)
      assert(r.run.avep > 0.35, s"${r.queryId}: AveP ${r.run.avep}")
  }

  test("search is rerank-dominated and heavy for the large QA ground truth") {
    for (r <- rows) {
      assert(r.run.rerankSec > r.run.fastSec * 10, s"${r.queryId} rerank dominance")
    }
  }

  test("at full scale, search lands within 60% of the paper's ~130 s") {
    assume(BenchFixtures.scale == 1.0)
    for (r <- rows) {
      val paper = TableVII.paper(r.queryId)._2
      assert(math.abs(r.run.searchSec - paper) / paper < 0.6,
        s"${r.queryId}: search ${r.run.searchSec} vs paper $paper")
    }
  }

  test("processing is the one-time cost (paper total - search ~ 59 s)") {
    assume(BenchFixtures.scale == 1.0)
    for (r <- rows)
      assert(r.run.processingSec > 40 && r.run.processingSec < 90,
        s"${r.queryId}: processing ${r.run.processingSec}")
  }
}
