package repro.rerank

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.PropertyChecks

class AttentionSpec extends AnyFunSuite with PropertyChecks {

  private val rowGen: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](6, Gen.chooseNum(-5.0, 5.0))
  private val vecGen: Gen[Array[Float]] =
    Gen.containerOfN[Array, Float](8, Gen.chooseNum(-2.0f, 2.0f))

  test("softmax sums to 1 and is positive") {
    forAllGen(rowGen) { row =>
      val s = Attention.softmax(row)
      assert(math.abs(s.sum - 1.0) < 1e-9)
      assert(s.forall(_ > 0.0))
    }
  }

  test("softmax is shift-invariant") {
    forAllGen(rowGen) { row =>
      val a = Attention.softmax(row)
      val b = Attention.softmax(row.map(_ + 100.0))
      assert(a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-9 })
    }
  }

  test("softmax handles extreme logits without NaN") {
    val s = Attention.softmax(Array(1e9, -1e9, 0.0))
    assert(!s.exists(_.isNaN))
    assert(math.abs(s(0) - 1.0) < 1e-9)
  }

  test("softmax of empty row is rejected") {
    intercept[IllegalArgumentException] { Attention.softmax(Array.empty[Double]) }
  }

  test("attention with a single key returns that value for every query") {
    forAllGen2(vecGen, vecGen) { (q, v) =>
      val out = Attention.attend(Array(q), Array(v), Array(v))
      assert(out.length == 1)
      assert(out(0).zip(v).forall { case (a, b) => math.abs(a - b) < 1e-5 })
    }
  }

  test("attention output rows are convex combinations of values (bounded)") {
    forAllGen3(vecGen, vecGen, vecGen) { (q, v1, v2) =>
      val out = Attention.attend(Array(q), Array(v1, v2), Array(v1, v2))(0)
      for (i <- out.indices) {
        val lo = math.min(v1(i), v2(i)) - 1e-5
        val hi = math.max(v1(i), v2(i)) + 1e-5
        assert(out(i) >= lo && out(i) <= hi)
      }
    }
  }

  test("a query aligned with one key attends mostly to its value") {
    val k1 = Array.fill(8)(0f); k1(0) = 10f
    val k2 = Array.fill(8)(0f); k2(1) = 10f
    val v1 = Array.fill(8)(1f)
    val v2 = Array.fill(8)(-1f)
    val out = Attention.attend(Array(k1), Array(k1, k2), Array(v1, v2))(0)
    assert(out(0) > 0.9f)
  }

  test("attend with empty keys returns the queries unchanged") {
    val q = Array(Array(1f, 2f))
    val out = Attention.attend(q, Array.empty, Array.empty)
    assert(out(0).sameElements(q(0)))
  }

  test("K/V length mismatch is rejected") {
    intercept[IllegalArgumentException] {
      Attention.attend(Array(Array(1f)), Array(Array(1f)), Array.empty)
    }
  }
}
