package repro.vit

import repro.SparkSpec
import repro.encoder.SemanticSpace
import repro.eval.Workloads
import repro.video.{Datasets, Keyframes, SynthVideo}

class VideoSummarySpec extends SparkSpec {

  private lazy val cfg = Datasets.cityscapes.scaled(0.03)
  private lazy val frames =
    Keyframes.select(SynthVideo.frames(spark, cfg, Workloads.plantSpecsFor("cityscapes"))).cache()
  private lazy val patches = VideoSummary.summarize(frames).cache()

  test("every keyframe yields exactly K patch records") {
    val nKey = frames.filter(_.isKey).count()
    assert(patches.count() == nKey * PatchGrid.K)
  }

  test("patch ids are globally unique and derive from frame id") {
    val ids = patches.collect().map(_.patchId)
    assert(ids.distinct.length == ids.length)
    assert(patches.collect().forall(p => p.patchId / PatchGrid.K == p.frameId))
  }

  test("embeddings are unit vectors of dim D'") {
    val sample = patches.take(200)
    assert(sample.forall(_.emb.length == SemanticSpace.Dp))
    assert(sample.forall(p => math.abs(repro.util.VecOps.norm(p.emb) - 1.0) < 1e-4))
  }

  test("object patches exist and carry their source object id") {
    val objPatches = patches.filter(_.isObject).collect()
    assert(objPatches.nonEmpty)
    // object ids are splitmix hashes (any sign); -1 is the bg sentinel
    assert(objPatches.forall(_.objId != -1L))
    val frameObjs = frames.filter(_.isKey).collect()
      .flatMap(_.objects.map(_.objId)).toSet
    assert(objPatches.forall(p => frameObjs.contains(p.objId)))
    val bg = patches.filter(!_.isObject).take(10)
    assert(bg.forall(_.objId == -1L))
  }

  test("predicted boxes of object patches overlap the true object (IoU > 0.3 on average)") {
    import spark.implicits._
    val truth = frames.filter(_.isKey)
      .flatMap(fr => fr.objects.map(o => (o.objId, o.x, o.y, o.w, o.h)))
      .collect().map(t => t._1 -> BBox(t._2, t._3, t._4, t._5)).toMap
    val ious = patches.filter(_.isObject).collect().flatMap { p =>
      truth.get(p.objId).map(t => BBox(p.px, p.py, p.pw, p.ph).iou(t))
    }
    assert(ious.nonEmpty)
    val mean = ious.sum / ious.length
    assert(mean > 0.3, s"mean IoU of coarse boxes = $mean")
    assert(mean < 0.99, "coarse boxes should not be exact (localization noise)")
  }

  test("background patches keep their anchor as the predicted box") {
    val bg = patches.filter(!_.isObject).take(50)
    assert(bg.forall(p => p.px == p.ax && p.py == p.ay))
    assert(bg.forall(p => p.pw == PatchGrid.S && p.ph == PatchGrid.S))
  }

  test("summarize(keyOnly = false) covers every raw frame") {
    val all = VideoSummary.summarize(frames, keyOnly = false)
    assert(all.count() == frames.count() * PatchGrid.K)
  }

  test("summary is deterministic") {
    val a = patches.collect().sortBy(_.patchId).map(p => (p.patchId, p.emb.toSeq, p.px))
    val b = VideoSummary.summarize(frames).collect().sortBy(_.patchId)
      .map(p => (p.patchId, p.emb.toSeq, p.px))
    assert(a.toSeq == b.toSeq)
  }

  test("summarizeFrame is pure and matches the distributed path") {
    val fr = frames.filter(_.isKey).head()
    val local = VideoSummary.summarizeFrame(fr, SummaryParams())
    val dist = patches.filter(_.frameId == fr.frameId).collect().sortBy(_.patchId)
    assert(local.map(_.patchId) == dist.map(_.patchId).toSeq)
    assert(local.map(_.emb.toSeq) == dist.map(_.emb.toSeq).toSeq)
  }

  test("object-patch embeddings are closer to their token text embedding than background") {
    import repro.util.VecOps
    val keyframes = frames.filter(_.isKey).take(10)
    val (objSims, bgSims) = keyframes.foldLeft((Seq.empty[Double], Seq.empty[Double])) {
      case ((os, bs), fr) =>
        val recs = VideoSummary.summarizeFrame(fr, SummaryParams())
        val objs = fr.objects.map(o => o.objId -> o).toMap
        val o2 = recs.filter(_.isObject).map { p =>
          VecOps.dot(p.emb, SemanticSpace.embedText(objs(p.objId).tokens))
        }
        // background patches scored against an arbitrary object's text
        val anyText = SemanticSpace.embedText(fr.objects.head.tokens)
        val b2 = recs.filterNot(_.isObject).map(p => VecOps.dot(p.emb, anyText))
        (os ++ o2, bs ++ b2)
    }
    val objMean = objSims.sum / objSims.size
    val bgMean = bgSims.sum / bgSims.size
    assert(objMean > bgMean + 0.2,
      s"mean object sim $objMean vs mean background sim $bgMean")
  }

  test("bytesPerEntry accounts for the fp32 vector plus metadata") {
    assert(VideoSummary.bytesPerEntry == SemanticSpace.Dp * 4 + 16 + 32)
  }

  test("predictBox clamps to the canvas") {
    val o = repro.video.ObjRec(123L, Seq("cls:bus"), 240, 180, 56, 26)
    val fr = repro.video.FrameRec("t", 0L, 0L, 0L, 0.9, isKey = true, Seq(o))
    val recs = VideoSummary.summarizeFrame(fr, SummaryParams(boxNoise = 0.5)).filter(_.isObject)
    assert(recs.nonEmpty)
    recs.foreach { r =>
      assert(r.px >= 0 && r.py >= 0 && r.px + r.pw <= 256 + 1e-9 && r.py + r.ph <= 192 + 1e-9)
    }
  }
}
