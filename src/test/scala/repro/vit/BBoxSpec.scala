package repro.vit

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.PropertyChecks
import repro.video.ObjRec

class BBoxSpec extends AnyFunSuite with PropertyChecks {

  private val boxGen: Gen[BBox] = for {
    x <- Gen.chooseNum(0.0, 200.0)
    y <- Gen.chooseNum(0.0, 150.0)
    w <- Gen.chooseNum(1.0, 60.0)
    h <- Gen.chooseNum(1.0, 60.0)
  } yield BBox(x, y, w, h)

  test("iou with itself is 1") {
    forAllGen(boxGen) { b => assert(math.abs(b.iou(b) - 1.0) < 1e-9) }
  }

  test("iou is symmetric") {
    forAllGen2(boxGen, boxGen) { (a, b) =>
      assert(math.abs(a.iou(b) - b.iou(a)) < 1e-12)
    }
  }

  test("iou is within [0, 1]") {
    forAllGen2(boxGen, boxGen) { (a, b) =>
      val i = a.iou(b)
      assert(i >= 0.0 && i <= 1.0)
    }
  }

  test("disjoint boxes have iou 0") {
    assert(BBox(0, 0, 10, 10).iou(BBox(20, 20, 10, 10)) == 0.0)
    assert(BBox(0, 0, 10, 10).iou(BBox(10, 0, 10, 10)) == 0.0) // touching edges
  }

  test("half-overlapping equal boxes have iou 1/3") {
    val a = BBox(0, 0, 10, 10); val b = BBox(5, 0, 10, 10)
    assert(math.abs(a.iou(b) - (50.0 / 150.0)) < 1e-12)
  }

  test("contained box iou equals area ratio") {
    val outer = BBox(0, 0, 20, 20); val inner = BBox(5, 5, 10, 10)
    assert(math.abs(outer.iou(inner) - 100.0 / 400.0) < 1e-12)
  }

  test("centre and corners are consistent") {
    forAllGen(boxGen) { b =>
      assert(math.abs(b.cx - (b.x + b.w / 2)) < 1e-12)
      assert(math.abs(b.x2 - (b.x + b.w)) < 1e-12)
      assert(b.area == b.w * b.h)
    }
  }

  test("contains is inclusive of top-left, exclusive of bottom-right") {
    val b = BBox(10, 10, 5, 5)
    assert(b.contains(10, 10))
    assert(!b.contains(15, 15))
    assert(b.contains(12, 14))
  }

  test("negative extents are rejected") {
    intercept[IllegalArgumentException] { BBox(0, 0, -1, 5) }
  }

  test("clamp keeps boxes inside the canvas") {
    forAllGen(boxGen) { b =>
      val shifted = BBox(b.x + 220, b.y + 160, b.w, b.h)
      val c = BBox.clamp(shifted, 256, 192)
      assert(c.x >= 0 && c.y >= 0)
      assert(c.x2 <= 256 + 1e-9 && c.y2 <= 192 + 1e-9)
      assert(c.w == math.min(b.w, 256.0) && c.h == math.min(b.h, 192.0))
    }
  }

  test("noisy boxes stay on the canvas for every salt") {
    // summary head, rerank decoder, then the baselines' detectors
    val salts = Seq(0xB0C5L, 0xDEC0L, 0x0CA1L, 0x317BL, 0xF160L, 0x2E1DAL, 0x03B7L, 0x71A5L)
    val objGen: Gen[ObjRec] = for {
      id <- Gen.chooseNum(0L, 1L << 40)
      x <- Gen.chooseNum(0.0, 255.0)
      y <- Gen.chooseNum(0.0, 191.0)
      w <- Gen.chooseNum(1.0, 120.0)
      h <- Gen.chooseNum(1.0, 120.0)
    } yield ObjRec(id, Seq("cls:bus"), x, y, w, h)
    // objects at the canvas edge, then random ones, under heavy noise
    val edge = Seq(ObjRec(1L, Seq("cls:bus"), 250, 185, 56, 26),
      ObjRec(123L, Seq("cls:bus"), 240, 180, 56, 26))
    def onCanvas(o: ObjRec, noise: Double): Unit = salts.foreach { salt =>
      val b = BBox.noisy(o, noise, salt)
      assert(b.x >= 0 && b.y >= 0 && b.x2 <= 256 + 1e-9 && b.y2 <= 192 + 1e-9, s"$o salt=$salt: $b")
      assert(b.w > 0 && b.h > 0)
    }
    edge.foreach(onCanvas(_, 0.5))
    forAllGen2(objGen, Gen.chooseNum(0.0, 1.0)) { (o, noise) => onCanvas(o, noise) }
  }

  test("noisy is fixed per (object, salt) and independent across salts") {
    val o = ObjRec(42L, Seq("cls:car"), 100, 80, 40, 22)
    assert(BBox.noisy(o, 0.1, 0xB0C5L) == BBox.noisy(o, 0.1, 0xB0C5L))
    assert(BBox.noisy(o, 0.1, 0xB0C5L) != BBox.noisy(o, 0.1, 0xDEC0L))
    assert(BBox.noisy(o, 0.0, 0xB0C5L) == BBox(o.x, o.y, o.w, o.h))
  }
}
