package repro.baselines

import org.apache.spark.sql.Dataset
import repro.encoder.{SemanticSpace, TextEncoder}
import repro.eval.Detection
import repro.util.{Rng, VecOps}
import repro.video.{DatasetConfig, FrameRec}
import repro.vit.BBox

/** UMT-style end-to-end moment retrieval baseline (paper [39]).
  *
  * Retrieves temporal *moments* (windows of frames), not objects: window
  * features are pooled frame embeddings scored against the full query.
  * Object-level localization then degrades to the dominant object of each
  * window frame — §VII-B's "faces challenges when searching for small
  * objects within frames". Its training distribution is everyday-life
  * footage, so traffic datasets get an additional score-noise penalty.
  */
object Umt {

  val WindowSize = 8
  val Stride = 4

  /** Number of candidate windows the moment transformer scores. */
  def windowCount(cfg: DatasetConfig): Long =
    cfg.nVideos.toLong * math.max(1, (cfg.rawPerVideo - WindowSize) / Stride + 1)

  def search(frames: Dataset[FrameRec], cfg: DatasetConfig,
             parsed: TextEncoder.ParsedQuery, k: Int): Seq[Detection] = {
    val spark = frames.sparkSession
    import spark.implicits._
    val q = SemanticSpace.embedText(parsed.tokens)
    val biasSigma = if (cfg.traffic) 0.30 else 0.05

    // Per-frame global embeddings + dominant-object boxes, grouped by video.
    val rows = frames
      .map { fr =>
        val emb = Zelda.frameEmbedding(fr)
        val largest = BaselineCommon.largestObject(fr)
        (fr.videoId, fr.idx, fr.frameId, fr.isKey, emb,
          largest.map(o => BBox.noisy(o, 0.05, 0x03B7L)))
      }
      .collect()
      .groupBy(_._1)

    val detections = rows.toSeq.sortBy(_._1).flatMap { case (videoId, fs) =>
      val ordered = fs.sortBy(_._2)
      ordered.indices.by(Stride).flatMap { start =>
        val win = ordered.slice(start, math.min(start + WindowSize, ordered.length))
        if (win.isEmpty) Seq.empty
        else {
          // mean-pooled window feature
          val pooled = win.map(_._5).reduce(VecOps.add)
          val base = VecOps.dot(VecOps.normalize(pooled), q)
          val wKey = Rng.mix(videoId, start.toLong)
          val score = base + biasSigma * Rng.gaussian(wKey, 0x44L)
          // a retrieved moment surfaces its keyframes' dominant objects
          win.filter(_._4).flatMap { case (_, _, fid, _, _, boxOpt) =>
            boxOpt.map(b => Detection(fid, score + 0.01 * BaselineCommon.jitter(fid, 5L), b))
          }
        }
      }
    }
    // a frame can appear in overlapping windows: keep its best score
    detections.groupBy(_.frameId).values.map(_.maxBy(_.score)).toSeq
      .sortBy(d => (-d.score, d.frameId))
      .take(k)
  }
}
