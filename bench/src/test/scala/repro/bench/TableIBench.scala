package repro.bench

import repro.SparkSpec
import repro.eval.tables.{TableFmt, TableI}

/** Table I — capability matrix of the method families, derived from
  * measured AveP on Bellevue probe queries plus the cost model's
  * scaling structure.
  */
class TableIBench extends SparkSpec {

  private lazy val res = TableI.run(BenchFixtures.bundles)

  test("Table I: publish the derived capability matrix") {
    TableFmt.publish("table1", TableI.render(res))
    assert(res.derived.size == TableI.capabilities.size * TableI.families.size)
  }

  test("QA-index handles predefined classes but not descriptions or relations") {
    assert(res.derived(("Predefined Classes", "QA-index")) == "Yes")
    assert(res.derived(("Simple Descriptions", "QA-index")) == "No")
    assert(res.derived(("Complex Queries", "QA-index")) == "No")
  }

  test("QD-search handles descriptions but not complex relational queries") {
    assert(res.derived(("Simple Descriptions", "QD-search")) == "Yes")
    assert(res.derived(("Predefined Classes", "QD-search")) == "Yes")
  }

  test("Vision-based supports every query class (paper's DINO/ZELDA column)") {
    assert(res.derived(("Complex Queries", "Vision-based")) == "Yes")
  }

  test("efficiency and preprocessing classes match the paper's structure") {
    assert(res.derived(("Execution Efficiency", "QA-index")) == "High")
    assert(res.derived(("Execution Efficiency", "QD-search")) == "Low")
    assert(res.derived(("Video Preprocessing", "QA-index")) == "Extensive")
    assert(res.derived(("Video Preprocessing", "QD-search")) == "Minimal")
    assert(res.derived(("Scalability", "QA-index")) == "Yes")
  }

  test("the derived matrix matches the paper on at least 17 of 21 cells") {
    val agree = TableI.paper.keys.count(k => res.derived(k) == TableI.paper(k))
    assert(agree >= 17, s"only $agree/21 cells agree with the paper")
  }
}
