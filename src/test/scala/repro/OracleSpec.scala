package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle must fail on a mismatch: the index suites rely on it
  * to reject wrong results, not only to accept right ones. The positive
  * checks live with the code they verify (GROUP BY in
  * InvertedMultiIndexSpec, JOIN in MetadataStoreSpec).
  */
class OracleSpec extends SparkSpec {

  private lazy val ids = spark.range(0, 60).toDF("id")

  test("oracle catches a wrong result") {
    import spark.implicits._
    val sql = """SELECT CAST(id AS BIGINT) % 3 AS g, COUNT(*) AS n
                |FROM ids GROUP BY CAST(id AS BIGINT) % 3""".stripMargin
    val right = ids.groupBy($"id" % 3 as "g").agg(count(lit(1)) as "n")
    val wrong = ids.groupBy($"id" % 3 as "g").agg((count(lit(1)) + 1) as "n")
    // the correct plan passes, so the failure below is the mismatch's
    Oracle.assertEquivalent(right, sql, "ids" -> ids)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "ids" -> ids)
    }
  }

  test("oracle rejects mismatched column sets") {
    import spark.implicits._
    val df = ids.select($"id" % 3 as "g").distinct()
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df,
        "SELECT DISTINCT CAST(id AS BIGINT) % 3 AS other FROM ids",
        "ids" -> ids)
    }
  }
}
