package repro.video

import repro.{Oracle, SparkSpec}
import repro.eval.Workloads

class KeyframesSpec extends SparkSpec {

  private lazy val cfg = Datasets.bellevue.scaled(0.04)
  private lazy val frames =
    SynthVideo.frames(spark, cfg, Workloads.plantSpecsFor("bellevue")).cache()

  test("select agrees with the analytic spike schedule") {
    val selected = Keyframes.select(frames)
      .filter(_.isKey).collect().map(_.frameId).sorted
    val expected = SynthVideo.keyframeSchedule(cfg).sorted
    assert(selected.toSeq == expected.toSeq)
  }

  test("keyframe ratio is ~1/keyPeriod") {
    val n = Keyframes.select(frames).filter(_.isKey).count()
    val total = frames.count()
    val ratio = n.toDouble / total
    assert(math.abs(ratio - 1.0 / cfg.keyPeriod) < 0.02, s"ratio=$ratio")
  }

  test("rising-edge rule matches a DuckDB window query (oracle)") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val motion = frames.toDF.select($"videoId", $"idx", round($"motion", 6) as "motion")
    val sparkKeys = Keyframes.select(frames).toDF
      .filter($"isKey")
      .groupBy($"videoId").agg(count(lit(1)) as "n_keys")
      .select($"videoId".cast("string") as "videoId", $"n_keys".cast("string") as "n_keys")
    Oracle.assertEquivalent(
      sparkKeys,
      s"""SELECT CAST(videoId AS VARCHAR) AS videoId,
         |       CAST(COUNT(*) AS VARCHAR) AS n_keys
         |FROM (
         |  SELECT videoId,
         |         CAST(motion AS DOUBLE) AS m,
         |         LAG(CAST(motion AS DOUBLE), 1, 0.0)
         |           OVER (PARTITION BY videoId ORDER BY CAST(idx AS BIGINT)) AS pm
         |  FROM motion
         |)
         |WHERE m > ${Scene.MotionThreshold} AND pm <= ${Scene.MotionThreshold}
         |GROUP BY videoId""".stripMargin,
      "motion" -> motion)
  }

  test("select preserves every frame (no rows dropped)") {
    assert(Keyframes.select(frames).count() == frames.count())
  }

  test("a higher threshold yields fewer keyframes") {
    val low = Keyframes.select(frames, 0.3).filter(_.isKey).count()
    val high = Keyframes.select(frames, 0.95).filter(_.isKey).count()
    assert(high <= low)
  }
}
