package repro.video

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** MVmed-style keyframe selection (paper §IV-A).
  *
  * The compressed-domain tracker flags frames where motion-vector
  * magnitude jumps — scene shifts or high activity. We implement the
  * rising-edge rule with a window `lag` over the per-video motion signal:
  * a frame is a keyframe iff its motion exceeds the threshold while the
  * previous frame's did not (the first frame of a video has no
  * predecessor and qualifies whenever it is above threshold).
  *
  * The frames are hash-partitioned by video id into
  * `spark.sql.shuffle.partitions` partitions, each in (video id, idx)
  * order. The partition count is stated, so the adaptive planner keeps it
  * rather than coalescing the window's output: it sets how many frame
  * blocks the build caches and how many tasks summarize the frames. No
  * index and no `Lovo` answer depends on it (the PQ training is
  * order-free); only the time of the build and of the scans over the
  * blocks does.
  */
object Keyframes {

  /** Populate `isKey` on every frame via a per-video window lag. */
  def select(frames: Dataset[FrameRec],
             threshold: Double = Scene.MotionThreshold): Dataset[FrameRec] = {
    val spark = frames.sparkSession
    import spark.implicits._
    val w = Window.partitionBy($"videoId").orderBy($"idx")
    frames.toDF
      .repartition(spark.conf.get("spark.sql.shuffle.partitions").toInt, $"videoId")
      .withColumn("prevMotion", lag($"motion", 1, 0.0).over(w))
      .withColumn("isKey", $"motion" > threshold && $"prevMotion" <= threshold)
      .drop("prevMotion")
      .as[FrameRec]
  }
}
