package repro.util

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.PropertyChecks

class VecOpsSpec extends AnyFunSuite with PropertyChecks {

  private val vecGen: Gen[Array[Float]] =
    Gen.containerOfN[Array, Float](8, Gen.chooseNum(-10.0f, 10.0f))

  test("dot of orthogonal unit basis vectors is 0") {
    val a = Array(1f, 0f, 0f); val b = Array(0f, 1f, 0f)
    assert(VecOps.dot(a, b) == 0.0)
  }

  test("dot is symmetric") {
    forAllGen2(vecGen, vecGen) { (a, b) =>
      assert(math.abs(VecOps.dot(a, b) - VecOps.dot(b, a)) < 1e-9)
    }
  }

  test("dot rejects dim mismatch") {
    intercept[IllegalArgumentException] {
      VecOps.dot(Array(1f), Array(1f, 2f))
    }
  }

  test("norm matches sqrt(dot(a,a))") {
    forAllGen(vecGen) { a =>
      assert(math.abs(VecOps.norm(a) - math.sqrt(VecOps.dot(a, a))) < 1e-9)
    }
  }

  test("normalize yields unit vectors for non-zero inputs") {
    forAllGen(vecGen) { a =>
      if (VecOps.norm(a) > 1e-6)
        assert(math.abs(VecOps.norm(VecOps.normalize(a)) - 1.0) < 1e-5)
    }
  }

  test("normalize of zero vector stays zero, no NaN") {
    val z = VecOps.normalize(Array(0f, 0f, 0f))
    assert(z.forall(_ == 0f))
  }

  test("normalize does not mutate its input") {
    val a = Array(3f, 4f)
    VecOps.normalize(a)
    assert(a.sameElements(Array(3f, 4f)))
  }

  test("l2 triangle inequality") {
    forAllGen3(vecGen, vecGen, vecGen) { (a, b, c) =>
      assert(VecOps.l2(a, c) <= VecOps.l2(a, b) + VecOps.l2(b, c) + 1e-6)
    }
  }

  test("l2 of identical vectors is 0") {
    forAllGen(vecGen) { a => assert(VecOps.l2(a, a) == 0.0) }
  }

  test("l2 relates to dot for unit vectors: d^2 = 2 - 2 cos") {
    forAllGen2(vecGen, vecGen) { (a0, b0) =>
      if (VecOps.norm(a0) > 1e-3 && VecOps.norm(b0) > 1e-3) {
        val a = VecOps.normalize(a0); val b = VecOps.normalize(b0)
        val d = VecOps.l2(a, b)
        assert(math.abs(d * d - (2 - 2 * VecOps.dot(a, b))) < 1e-4)
      }
    }
  }

  test("add is elementwise") {
    assert(VecOps.add(Array(1f, 2f), Array(3f, 4f)).sameElements(Array(4f, 6f)))
  }

  test("scale multiplies every element") {
    assert(VecOps.scale(Array(1f, -2f), 2.0).sameElements(Array(2f, -4f)))
  }

  test("subvector slices the p-th m-block") {
    val v = Array(0f, 1f, 2f, 3f, 4f, 5f)
    assert(VecOps.subvector(v, 0, 2).sameElements(Array(0f, 1f)))
    assert(VecOps.subvector(v, 2, 2).sameElements(Array(4f, 5f)))
  }

  test("dotAt scores a vector in place, as dot scores its copy") {
    val flat = Array.tabulate(12)(i => Rng.gaussian(3L, i.toLong).toFloat)
    val q = Array.tabulate(4)(i => Rng.gaussian(4L, i.toLong).toFloat)
    for (off <- Seq(0, 5, 8))
      assert(VecOps.dotAt(q, flat, off) == VecOps.dot(q, java.util.Arrays.copyOfRange(flat, off, off + 4)))
    intercept[IllegalArgumentException] { VecOps.dotAt(q, flat, 9) }
    intercept[IllegalArgumentException] { VecOps.dotAt(q, flat, -1) }
  }
}
