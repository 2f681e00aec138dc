package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Fixtures
import repro.util.{Rng, VecOps}
import repro.vit.BBox

class HnswSpec extends AnyFunSuite {

  private val dim = 32
  private lazy val data = Fixtures.clusteredPatches(5, 60, dim)

  private def freshIndex(seed: Long = 7L): HnswIndex = {
    val g = new HnswIndex(dim, M = 8, efConstruction = 64, seed = seed)
    data.foreach(p => g.add(p.patchId, p.frameId, Fixtures.box(p), p.emb))
    g
  }

  test("size tracks inserts") {
    val g = freshIndex()
    assert(g.size == data.size)
  }

  test("search on an empty index returns nothing") {
    val g = new HnswIndex(dim)
    assert(g.search(Fixtures.clusterCentre(5, dim, 0), 5).isEmpty)
  }

  test("single-element index returns that element") {
    val g = new HnswIndex(dim)
    g.add(42L, 7L, BBox(1.5, 2.25, 3.0, 4.75), data.head.emb)
    val hits = g.search(data.head.emb, 3)
    assert(hits.map(_.patchId) == Seq(42L))
    assert(hits.head.frameId == 7L)
    assert(hits.head.box == BBox(1.5, 2.25, 3.0, 4.75))
  }

  test("recall@10 vs exhaustive search exceeds 0.9") {
    val g = freshIndex()
    val recalls = (0 until 5).map { c =>
      val q = VecOps.normalize(Fixtures.clusterCentre(5, dim, c))
      val exact = data.map(p => (p.patchId, VecOps.dot(q, p.emb)))
        .sortBy(t => (-t._2, t._1)).take(10).map(_._1).toSet
      val got = g.search(q, 10, ef = 64).map(_.patchId).toSet
      exact.intersect(got).size / 10.0
    }
    val mean = recalls.sum / recalls.size
    assert(mean >= 0.9, s"mean recall@10 = $mean")
  }

  test("hits are sorted by descending inner product") {
    val g = freshIndex()
    val hits = g.search(Fixtures.clusterCentre(5, dim, 1), 15)
    assert(hits.sliding(2).forall(w => w.size < 2 || w(0).score >= w(1).score))
    assert(hits.size == 15)
  }

  test("scores are exact inner products") {
    val g = freshIndex()
    val q = VecOps.normalize(Fixtures.clusterCentre(5, dim, 2))
    val byId = data.map(p => p.patchId -> p.emb).toMap
    for (h <- g.search(q, 8))
      assert(math.abs(h.score - VecOps.dot(q, byId(h.patchId))) < 1e-6)
  }

  test("construction and search are deterministic in the seed") {
    val a = freshIndex(3L); val b = freshIndex(3L)
    val q = Fixtures.clusterCentre(5, dim, 3)
    assert(a.search(q, 10) == b.search(q, 10))
  }

  test("distance computations are counted and bounded below a full scan per query") {
    val g = freshIndex()
    val before = g.distComps
    g.search(Fixtures.clusterCentre(5, dim, 0), 10, ef = 32)
    val used = g.distComps - before
    assert(used > 0)
    assert(used < data.size * 3L, s"used $used comps for ${data.size} points")
  }

  test("larger ef does not reduce recall") {
    val g = freshIndex()
    val q = VecOps.normalize(Fixtures.clusterCentre(5, dim, 4))
    val exact = data.map(p => (p.patchId, VecOps.dot(q, p.emb)))
      .sortBy(t => (-t._2, t._1)).take(10).map(_._1).toSet
    def recall(ef: Int) =
      g.search(q, 10, ef).map(_.patchId).toSet.intersect(exact).size
    assert(recall(128) >= recall(8))
  }

  test("dimension mismatch on add is rejected") {
    val g = new HnswIndex(dim)
    intercept[IllegalArgumentException] { g.add(1L, 1L, BBox(0, 0, 1, 1), new Array[Float](dim + 1)) }
  }

  test("dimension mismatch on search is rejected") {
    val g = freshIndex()
    intercept[IllegalArgumentException] { g.search(new Array[Float](dim + 1), 5) }
    intercept[IllegalArgumentException] { g.search(new Array[Float](dim - 1), 5) }
  }

  test("the flat graph answers exactly as the reference graph") {
    // Enough nodes that M = 4 and M = 8 both put some on layers >= 2.
    val points = Fixtures.clusteredPatches(6, 100, dim)
    var fallbacks = 0
    for (seed <- Seq(3L, 7L, 11L); m <- Seq(4, 8)) {
      val label = s"seed=$seed M=$m"
      val flat = new HnswIndex(dim, M = m, efConstruction = 64, seed = seed)
      val ref = new ReferenceHnswIndex(dim, M = m, efConstruction = 64, seed = seed)
      points.foreach { p =>
        flat.add(p.patchId, p.frameId, Fixtures.box(p), p.emb)
        ref.add(p.patchId, p.frameId, Fixtures.box(p), p.emb)
      }
      assert(ref.maxLevel >= 2, label)
      assert(flat.size == ref.size, label)
      assert(flat.distComps == ref.distComps, s"$label: build")
      // Two queries near cluster centres, two anywhere.
      val queries = (0 until 4).map { i =>
        val centre = Fixtures.clusterCentre(6, dim, i)
        Array.tabulate(dim) { j =>
          val g = Rng.gaussian(Rng.mix(seed, i.toLong), j.toLong).toFloat
          if (i < 2) centre(j) + 0.2f * g else g
        }
      }
      for ((q, qi) <- queries.zipWithIndex; k <- Seq(1, 10, points.size); ef <- Seq(8, 64)) {
        val at = s"$label query=$qi k=$k ef=$ef"
        assert(flat.search(q, k, ef) == ref.search(q, k, ef), at)
        assert(flat.distComps == ref.distComps, at)
      }
      fallbacks += ref.fallbacks
    }
    assert(fallbacks > 0, "no search reached the unreached-node fallback")
  }
}
