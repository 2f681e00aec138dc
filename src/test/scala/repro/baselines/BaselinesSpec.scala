package repro.baselines

import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.eval.{Detection, Harness, Metrics}
import repro.testkit.Fixtures
import repro.video.{FrameRec, ObjRec}
import repro.vit.BBox

class BaselinesSpec extends SparkSpec {

  private lazy val city = Fixtures.cityscapes
  private lazy val bell = Fixtures.bellevue

  private def avepOf(dets: Seq[Detection], text: String): Double =
    Metrics.averagePrecision(dets, Harness.groundTruthFor(bell, text))

  test("VOCAL answers predefined-class queries") {
    val parsed = TextEncoder.parse("car")
    val dets = Vocal.search(bell.build.frames, parsed, k = 500)
    assert(dets.nonEmpty)
    val avep = avepOf(dets, "car")
    assert(avep > 0.3, s"VOCAL on 'car' AveP=$avep")
  }

  test("VOCAL returns nothing for novel classes (the SUV failure)") {
    assert(Vocal.search(bell.build.frames, TextEncoder.parse("suv"), 100).isEmpty)
    assert(Vocal.search(city.build.frames, TextEncoder.parse("a woman dancing"), 100).isEmpty)
  }

  test("VOCAL cannot discriminate attributes: red-car precision ~ class prior") {
    val all = Vocal.search(bell.build.frames, TextEncoder.parse("car"), 2000)
    val redAvep = avepOf(
      Vocal.search(bell.build.frames, TextEncoder.parse("a red car in the road"), 2000),
      "a red car in the road")
    val carAvep = avepOf(all, "car")
    assert(redAvep < carAvep, s"red=$redAvep should trail class query=$carAvep")
  }

  test("MIRIS and FiGO refuse unseen classes") {
    assert(Miris.search(bell.build.frames, TextEncoder.parse("suv"), 50).isEmpty)
    assert(Figo.search(bell.build.frames, TextEncoder.parse("suv"), 50).isEmpty)
  }

  test("FiGO beats MIRIS on attribute-rich queries (ensemble vs single model)") {
    val texts = Seq(
      "a red car in the road",
      "A red car driving in the center of the road.",
      "A bus driving on the road with white roof and yellow-green body.")
    val (fs, ms) = texts.map { text =>
      val parsed = TextEncoder.parse(text)
      (avepOf(Figo.search(bell.build.frames, parsed, 500), text),
       avepOf(Miris.search(bell.build.frames, parsed, 500), text))
    }.unzip
    val f = fs.sum / fs.size; val m = ms.sum / ms.size
    assert(f >= m, s"mean FiGO=$f vs mean MIRIS=$m over ${texts.size} queries")
    assert(f > 0.2, s"FiGO should handle novel-feature queries, AveP=$f")
  }

  test("FiGO cannot separate relation queries from their near-misses") {
    val q22 = "A red car side by side with another car, both positioned in the center of the road."
    val avep = avepOf(Figo.search(bell.build.frames, TextEncoder.parse(q22), 500), q22)
    // positives and near-misses share every key phrase FiGO can check, so
    // its ranking among them is noise-driven — well below a clean 1.0
    assert(avep < 0.6, s"FiGO on Q2.2 AveP=$avep (relations need retraining)")
  }

  test("ZELDA ranks globally and handles full sentences") {
    val q22 = "A red car side by side with another car, both positioned in the center of the road."
    val dets = Zelda.search(bell.build.frames, TextEncoder.parse(q22), 200)
    assert(dets.nonEmpty)
    assert(dets.map(_.frameId).distinct.size == dets.size, "one detection per frame")
  }

  test("ZELDA frame embedding pools every object (global dilution)") {
    val fr = bell.build.frames.filter(_.isKey).head()
    val emb = Zelda.frameEmbedding(fr)
    assert(emb.length == repro.encoder.SemanticSpace.Dp)
    // removing an object changes the global embedding
    val fewer = fr.copy(objects = fr.objects.drop(1))
    assert(!Zelda.frameEmbedding(fewer).sameElements(emb))
  }

  test("UMT retrieves windows: detections cluster temporally") {
    val dets = Umt.search(bell.build.frames, bell.build.dataset,
      TextEncoder.parse("A bus driving on the road."), 60)
    assert(dets.nonEmpty)
    assert(dets.map(_.frameId).distinct.size == dets.size)
    assert(Umt.windowCount(bell.build.dataset) > 0)
  }

  test("VISA is accurate on daily-life scenes, degraded on traffic") {
    // qvhighlights-style accuracy proxy: wrong-object probability differs
    val text = "A bus driving on the road."
    val parsed = TextEncoder.parse(text)
    val trafficDets = Visa.search(bell.build.frames, bell.build.dataset, parsed, 100)
    assert(trafficDets.nonEmpty)
    // structural check: traffic config uses high wrong-object rate
    assert(bell.build.dataset.traffic)
  }

  test("baselines are deterministic") {
    val parsed = TextEncoder.parse("A bus driving on the road.")
    assert(Figo.search(bell.build.frames, parsed, 50) ==
           Figo.search(bell.build.frames, parsed, 50))
    assert(Zelda.search(bell.build.frames, parsed, 50) ==
           Zelda.search(bell.build.frames, parsed, 50))
    assert(Visa.search(bell.build.frames, bell.build.dataset, parsed, 50) ==
           Visa.search(bell.build.frames, bell.build.dataset, parsed, 50))
  }

  test("topKeyframeDetections reads keyframes only and ranks by score, then frame id") {
    val s = spark
    import s.implicits._
    def fr(fid: Long, key: Boolean) = FrameRec("t", 0L, fid, fid, 0.9, isKey = key, Seq.empty)
    // shuffled input; frame 2 is not a keyframe and would outscore all others
    val frames = Seq(fr(5, key = true), fr(2, key = false), fr(4, key = true),
      fr(3, key = true), fr(1, key = true)).toDS().repartition(3)
    val box = BBox(0, 0, 1, 1)
    def top(k: Int) = BaselineCommon.topKeyframeDetections(frames, k) { f =>
      val score = f.frameId match { case 2L => 1.0; case 3L => 0.9; case _ => 0.5 }
      Seq(Detection(f.frameId, score, box))
    }
    assert(top(10).map(_.frameId) == Seq(3L, 1L, 4L, 5L))
    assert(top(10).map(_.score) == Seq(0.9, 0.5, 0.5, 0.5))
    assert(top(2).map(_.frameId) == Seq(3L, 1L))
    assert(top(0).isEmpty)
  }

  test("detBox noise stays clamped to the canvas") {
    // the detector salts of VOCAL, MIRIS, FiGO, ZELDA, UMT and VISA
    val o = ObjRec(1L, Seq("cls:bus"), 250, 185, 56, 26)
    Seq(0x0CA1L, 0x317BL, 0xF160L, 0x2E1DAL, 0x03B7L, 0x71A5L).foreach { salt =>
      val b = BBox.noisy(o, 0.5, salt)
      assert(b.x >= 0 && b.y >= 0 && b.x2 <= 256 + 1e-9 && b.y2 <= 192 + 1e-9, s"salt=$salt: $b")
    }
  }

  test("largestObject picks the max-area object") {
    val small = ObjRec(1L, Seq("cls:dog"), 0, 0, 10, 10)
    val big = ObjRec(2L, Seq("cls:bus"), 20, 20, 50, 25)
    val fr = FrameRec("t", 0, 0, 0, 0.9, isKey = true, Seq(small, big))
    assert(BaselineCommon.largestObject(fr).contains(big))
    assert(BaselineCommon.largestObject(fr.copy(objects = Seq.empty)).isEmpty)
  }
}
