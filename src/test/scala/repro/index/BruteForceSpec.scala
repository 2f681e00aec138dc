package repro.index

import repro.{Oracle, SparkSpec}
import repro.pq.ProductQuantizer
import repro.testkit.Fixtures
import repro.util.VecOps

class BruteForceSpec extends SparkSpec {

  private lazy val patches = {
    import spark.implicits._
    spark.createDataset(Fixtures.clusteredPatches(4, 50, 32)).cache()
  }
  private lazy val pq = ProductQuantizer.train(
    { import spark.implicits._; patches.map(_.emb).rdd }, P = 4, m = 8, M = 8, iters = 4)
  private lazy val index = InvertedMultiIndex.build(patches, pq, nPartitions = 4)

  test("top-k matches a driver-side exhaustive sort") {
    val q = Fixtures.clusterCentre(4, 32, 1)
    val qn = VecOps.normalize(q)
    val (hits, _) = BruteForce.search(index, q, k = 25)
    val expected = Fixtures.clusteredPatches(4, 50, 32)
      .map(p => Candidate(p.patchId, p.frameId, VecOps.dot(qn, p.emb), Fixtures.box(p)))
      .sortBy(h => (-h.score, h.patchId))
      .take(25).toSeq
    assert(hits == expected)
  }

  test("stats report a full scan with no second rescore pass") {
    val (_, stats) = BruteForce.search(index, Fixtures.clusterCentre(4, 32, 0), k = 5)
    assert(stats.candidates == index.total)
    assert(stats.rescored == 0L)
    assert(stats.lutDots == 0)
  }

  test("top-k selection matches DuckDB ORDER BY ... LIMIT (oracle)") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val q = Fixtures.clusterCentre(4, 32, 2)
    val qn = VecOps.normalize(q)
    val scored = PostingRows.flatten(index)
      .map(e => (e.patchId, math.rint(VecOps.dot(qn, e.emb) * 1e6) / 1e6))
      .toDF("patchId", "score").cache()
    val sparkTop = scored
      .orderBy(col("score").desc, col("patchId"))
      .limit(10)
      .select(col("patchId").cast("string") as "patchId", col("score"))
    Oracle.assertEquivalent(
      sparkTop,
      """SELECT CAST(patchId AS VARCHAR) AS patchId,
        |       CAST(score AS DOUBLE) AS score
        |FROM scored
        |ORDER BY CAST(score AS DOUBLE) DESC, CAST(patchId AS BIGINT)
        |LIMIT 10""".stripMargin,
      "scored" -> scored.select(col("patchId").cast("string") as "patchId",
                                col("score").cast("string") as "score"))
  }

  test("k larger than the collection returns everything ranked") {
    val (hits, _) = BruteForce.search(index, Fixtures.clusterCentre(4, 32, 3),
      k = index.total.toInt * 2)
    assert(hits.size == index.total)
  }

  test("dimension mismatch on search is rejected") {
    intercept[IllegalArgumentException] { BruteForce.search(index, new Array[Float](pq.dim + 1), k = 5) }
    intercept[IllegalArgumentException] { BruteForce.search(index, new Array[Float](pq.dim - 1), k = 5) }
  }
}
