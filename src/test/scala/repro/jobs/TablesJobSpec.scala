package repro.jobs

import repro.SparkSpec

/** Argument handling only: `TablesJob.main` with valid arguments ends by
  * stopping its session, which in a test JVM is the shared one.
  */
class TablesJobSpec extends SparkSpec {

  test("no arguments name every table at the paper calibration") {
    assert(TablesJob.parse(Array()) == ((1.0, TablesJob.tables.map(_._1))))
    assert(TablesJob.parse(Array("table4")) == ((1.0, Seq("table4"))))
    assert(TablesJob.parse(Array("0.05", "table3", "table1")) ==
      ((0.05, Seq("table3", "table1"))))
  }

  test("an unknown table or a scale that is not positive fails before Spark is touched") {
    val session = spark
    for ((args, named) <- Seq(
           (Array("0.05", "table8"), "unknown tables table8"),
           (Array("table1", "tables"), "unknown tables tables"),
           (Array("0.05", "0.1"), "unknown tables 0.1"),
           (Array("0"), "got 0.0"),
           (Array("-1", "table1"), "got -1.0"),
           (Array("NaN"), "got NaN"),
           (Array("Infinity"), "got Infinity"))) {
      val e = intercept[IllegalArgumentException] { TablesJob.main(args) }
      assert(e.getMessage.contains(named), e.getMessage)
    }
    assert(!session.sparkContext.isStopped)
    assert(!SparkSpec.shared.sparkContext.isStopped)
  }
}
