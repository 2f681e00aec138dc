package repro.rerank

import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.testkit.Fixtures
import repro.video.{FrameRec, ObjRec}

class CrossModalRerankSpec extends SparkSpec {

  private val params = RerankParams()
  private val parsed = TextEncoder.parse(
    "A red car side by side with another car, both positioned in the center of the road.")
  private lazy val textTokens = TextEncoder.rerankTokenEmbeddings(parsed).toArray

  private def frame(fid: Long, objs: Seq[ObjRec]) =
    FrameRec("t", 0L, fid, fid, 0.9, isKey = true, objects = objs)

  private val posTokens = parsed.tokens
  private val nearTokens = parsed.fastTokens // missing rel + loc

  test("rerankFrame scores a full-match object above a near-miss, averaged over noise draws") {
    val wins = (0 until 40).count { i =>
      val pos = ObjRec(1000L + i, posTokens, 100, 80, 40, 22)
      val near = ObjRec(5000L + i, nearTokens, 30, 30, 40, 22)
      val (_, objs) = CrossModalRerank.rerankFrame(
        frame(i.toLong, Seq(pos, near)), textTokens, params)
      val byId = objs.map(o => o.objId -> o.score).toMap
      byId(pos.objId) > byId(near.objId)
    }
    // the relation margin is deliberately small (weak visual evidence for
    // spatial structure) — the positive must still win more often than not
    assert(wins >= 24, s"positive outranked near-miss only $wins/40 times")
  }

  test("frame score l_s is the max object score") {
    val pos = ObjRec(1L, posTokens, 100, 80, 40, 22)
    val near = ObjRec(2L, nearTokens, 30, 30, 40, 22)
    val (ls, objs) = CrossModalRerank.rerankFrame(frame(9L, Seq(pos, near)), textTokens, params)
    assert(math.abs(ls - objs.map(_.score).max) < 1e-12)
  }

  test("empty frames or empty queries yield no output") {
    val (ls, objs) = CrossModalRerank.rerankFrame(frame(1L, Seq.empty), textTokens, params)
    assert(objs.isEmpty && ls.isNegInfinity)
    val (ls2, objs2) = CrossModalRerank.rerankFrame(
      frame(1L, Seq(ObjRec(1L, posTokens, 0, 0, 10, 10))), Array.empty, params)
    assert(objs2.isEmpty && ls2.isNegInfinity)
  }

  test("decoder boxes stay near the true object (IoU > 0.5 typically)") {
    val ious = (0 until 60).map { i =>
      val o = ObjRec(i.toLong, posTokens, 100, 80, 40, 22)
      val b = repro.vit.BBox.noisy(o, params.boxNoise, CrossModalRerank.BoxSalt)
      b.iou(repro.vit.BBox(o.x, o.y, o.w, o.h))
    }
    assert(ious.count(_ > 0.5).toDouble / ious.size > 0.85)
  }

  test("distributed rerank over a bundle returns ordered frames and counts") {
    val b = Fixtures.cityscapes
    val someFrames = b.build.frames.filter(_.isKey).take(6).map(_.frameId).toSeq
    val rr = CrossModalRerank.rerank(b.build.frameBlocks, someFrames, parsed, params)
    assert(rr.framesProcessed == someFrames.size)
    assert(rr.textTokens == parsed.tokens.size)
    assert(rr.totalImageTokens > 0)
    assert(rr.frameScores.map(_._2).sliding(2).forall(w => w.size < 2 || w(0) >= w(1)))
    assert(rr.objects.map(_.score).sliding(2).forall(w => w.size < 2 || w(0) >= w(1)))
    assert(rr.objects.forall(o => someFrames.contains(o.frameId)))
  }

  test("rerank of no candidate frames is empty") {
    val b = Fixtures.cityscapes
    val rr = CrossModalRerank.rerank(b.build.frameBlocks, Seq.empty, parsed, params)
    assert(rr.objects.isEmpty && rr.framesProcessed == 0)
  }

  test("absent and repeated candidate ids rerank like a driver-side filter of all frames") {
    val b = Fixtures.cityscapes
    val all = b.build.frames.collect()
    val keys = all.filter(_.isKey).take(5).map(_.frameId).toSeq
    val candidates = keys ++ Seq(keys(1), -7L, keys.head, Long.MaxValue)
    val rr = CrossModalRerank.rerank(b.build.frameBlocks, candidates, parsed, params)
    val perFrame = all.filter(f => candidates.contains(f.frameId)).map { fr =>
      val (ls, objs) = CrossModalRerank.rerankFrame(fr, textTokens, params)
      (fr.frameId, ls, objs, fr.objects.size)
    }
    val expected = RerankResult(
      objects = perFrame.flatMap(_._3).sortBy(o => (-o.score, o.frameId, o.objId)).toSeq,
      frameScores = perFrame.map(f => (f._1, f._2)).sortBy { case (fid, ls) => (-ls, fid) }.toSeq,
      framesProcessed = perFrame.length,
      totalImageTokens = perFrame.map(_._4.toLong).sum,
      textTokens = textTokens.length)
    assert(rr == expected)
    assert(rr.framesProcessed == keys.distinct.size, "distinct existing frames")
    assert(CrossModalRerank.rerank(b.build.frameBlocks, candidates.reverse, parsed, params) == expected,
      "the candidates' order decides nothing")
  }

  test("rerank finds columns by name, not by case-class field position") {
    import spark.implicits._
    val build = Fixtures.cityscapes.build
    val frames = build.frames
    val reordered = frames.select(frames.columns.reverse.map(frames(_)).toIndexedSeq: _*).as[FrameRec]
    assert(reordered.columns.toSeq != frames.columns.toSeq)
    val fs = frames.filter(_.isKey).take(5).map(_.frameId).toSeq
    val expected = CrossModalRerank.rerank(build.frameBlocks, fs, parsed, params)
    assert(expected.framesProcessed == fs.size && expected.objects.nonEmpty)
    assert(CrossModalRerank.rerank(reordered, fs, parsed, params) == expected)
  }

  test("a candidate frame without objects scores -inf, adds no objects and still counts") {
    import spark.implicits._
    val full = frame(2L, Seq(ObjRec(21L, posTokens, 100, 80, 40, 22), ObjRec(22L, nearTokens, 30, 30, 40, 22)))
    val frames = spark.createDataset(Seq(frame(1L, Seq.empty), full, frame(3L, Seq.empty))).cache()
    val rr = CrossModalRerank.rerank(frames, Seq(1L, 2L), parsed, params)
    assert(rr.framesProcessed == 2)
    assert(rr.totalImageTokens == 2L)
    assert(rr.objects.map(_.objId).toSet == Set(21L, 22L))
    assert(rr.frameScores.map(_._1) == Seq(2L, 1L))
    assert(rr.frameScores.last._2.isNegInfinity)
    assert(rr.frameScores.head._2 == CrossModalRerank.rerankFrame(full, textTokens, params)._1)
  }

  test("rerank is deterministic") {
    val b = Fixtures.cityscapes
    val fs = b.build.frames.filter(_.isKey).take(4).map(_.frameId).toSeq
    val a = CrossModalRerank.rerank(b.build.frameBlocks, fs, parsed, params)
    val c = CrossModalRerank.rerank(b.build.frameBlocks, fs, parsed, params)
    assert(a.objects == c.objects)
    assert(a.frameScores == c.frameScores)
  }
}
