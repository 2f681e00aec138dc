package repro.encoder

import org.scalatest.funsuite.AnyFunSuite
import repro.util.VecOps

class SemanticSpaceSpec extends AnyFunSuite {
  import SemanticSpace._

  test("tokenVec is a unit vector of dim D") {
    val v = tokenVec("cls:car")
    assert(v.length == D)
    assert(math.abs(VecOps.norm(v) - 1.0) < 1e-5)
  }

  test("tokenVec is deterministic") {
    assert(tokenVec("cls:car").sameElements(tokenVec("cls:car")))
  }

  test("distinct tokens are near-orthogonal in expectation") {
    val toks = Seq("cls:car", "cls:bus", "col:red", "col:green", "ctx:road",
      "act:walking", "att:hat", "rel:side_by_side")
    val pairs = for (i <- toks.indices; j <- toks.indices if i < j)
      yield math.abs(VecOps.dot(tokenVec(toks(i)), tokenVec(toks(j))))
    assert(pairs.max < 0.55, s"max |cos| = ${pairs.max}")
    assert(pairs.sum / pairs.size < 0.2)
  }

  test("projection has shape Dp x D and is deterministic") {
    assert(projection.length == Dp)
    assert(projection.forall(_.length == D))
    assert(projection(0)(0) == projection(0)(0))
  }

  test("project maps to Dp dims and rejects wrong input dim") {
    assert(project(tokenVec("cls:car")).length == Dp)
    intercept[IllegalArgumentException] { project(new Array[Float](Dp)) }
  }

  test("embedTokens returns unit vectors in projected space") {
    val e = embedTokens(Seq("cls:car", "col:red"), 42L, 0.5)
    assert(e.length == Dp)
    assert(math.abs(VecOps.norm(e) - 1.0) < 1e-5)
  }

  test("embedTokens is deterministic in (tokens, key, sigma)") {
    val a = embedTokens(Seq("cls:car"), 7L, 0.5)
    val b = embedTokens(Seq("cls:car"), 7L, 0.5)
    assert(a.sameElements(b))
  }

  test("different noise keys give different noisy embeddings") {
    val a = embedTokens(Seq("cls:car"), 7L, 0.5)
    val b = embedTokens(Seq("cls:car"), 8L, 0.5)
    assert(!a.sameElements(b))
  }

  test("embedText equals noise-free embedTokens") {
    val a = embedText(Seq("cls:car", "ctx:road"))
    val b = embedTokens(Seq("cls:car", "ctx:road"), 999L, 0.0)
    assert(a.sameElements(b))
  }

  test("similarity grows with token overlap (aligned-encoder contract)") {
    val query = embedText(Seq("cls:car", "col:red", "ctx:road"))
    def simOf(tokens: Seq[String], key: Long): Double =
      VecOps.dot(embedTokens(tokens, key, 0.55), query)
    val n = 200
    val full = (0 until n).map(i => simOf(Seq("cls:car", "col:red", "ctx:road"), i.toLong)).sum / n
    val partial = (0 until n).map(i => simOf(Seq("cls:car", "col:green", "ctx:road"), 1000L + i)).sum / n
    val none = (0 until n).map(i => simOf(Seq("cls:dog", "col:white", "ctx:indoor"), 2000L + i)).sum / n
    assert(full > partial, s"full=$full partial=$partial")
    assert(partial > none, s"partial=$partial none=$none")
    assert(full - none > 0.3, "separation too weak for retrieval to work")
  }

  test("noise shrinks similarity to the clean text embedding") {
    val toks = Seq("cls:bus", "col:green", "ctx:road")
    val clean = embedText(toks)
    val n = 100
    def meanSim(sigma: Double): Double =
      (0 until n).map(i => VecOps.dot(embedTokens(toks, i.toLong, sigma), clean)).sum / n
    val lo = meanSim(0.15); val hi = meanSim(0.9)
    assert(lo > hi, s"sigma=0.15 -> $lo should beat sigma=0.9 -> $hi")
    assert(meanSim(0.0) > 0.999)
  }
}
