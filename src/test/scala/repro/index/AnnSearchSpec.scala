package repro.index

import repro.SparkSpec
import repro.pq.ProductQuantizer
import repro.testkit.Fixtures
import repro.util.VecOps

class AnnSearchSpec extends SparkSpec {

  private val nClusters = 6
  private val dim = 32
  private lazy val patches = {
    import spark.implicits._
    spark.createDataset(Fixtures.clusteredPatches(nClusters, 80, dim)).cache()
  }
  private lazy val pq = ProductQuantizer.train(
    { import spark.implicits._; patches.map(_.emb).rdd }, P = 4, m = 8, M = 8, iters = 5)
  private lazy val index = InvertedMultiIndex.build(patches, pq, nPartitions = 4)

  test("hit scores are exact inner products with the stored vectors") {
    val q = Fixtures.clusterCentre(nClusters, dim, 0)
    val (hits, _) = AnnSearch.search(index, q, k = 10)
    val byId = index.entries.collect().map(e => e.patchId -> e.emb).toMap
    for (h <- hits)
      assert(math.abs(h.score - VecOps.dot(VecOps.normalize(q), byId(h.patchId))) < 1e-6)
  }

  test("hits come back sorted descending, at most k of them") {
    val q = Fixtures.clusterCentre(nClusters, dim, 1)
    val (hits, _) = AnnSearch.search(index, q, k = 15)
    assert(hits.size <= 15)
    assert(hits.sliding(2).forall(w => w.size < 2 || w(0).score >= w(1).score))
  }

  test("recall@k vs brute force is high on clustered data") {
    val overlaps = (0 until nClusters).map { c =>
      val q = Fixtures.clusterCentre(nClusters, dim, c)
      val (annHits, _) = AnnSearch.search(index, q, k = 20)
      val (bfHits, _) = BruteForce.search(index, q, k = 20)
      annHits.map(_.patchId).toSet.intersect(bfHits.map(_.patchId).toSet).size / 20.0
    }
    val mean = overlaps.sum / overlaps.size
    assert(mean >= 0.6, s"mean recall@20 = $mean")
  }

  test("queries near a cluster centre retrieve mostly that cluster") {
    val q = Fixtures.clusterCentre(nClusters, dim, 3)
    val (hits, _) = AnnSearch.search(index, q, k = 20)
    // objId stores the cluster id in the fixture
    val byId = index.entries.collect().map(e => e.patchId -> e.patchId / 80).toMap
    val frac = hits.count(h => byId(h.patchId) == 3).toDouble / hits.size
    assert(frac >= 0.8, s"cluster purity $frac")
  }

  test("candidate scan touches a fraction of the collection") {
    val q = Fixtures.clusterCentre(nClusters, dim, 2)
    val (_, stats) = AnnSearch.search(index, q, k = 10)
    assert(stats.candidates < index.total, "ANN search must not scan everything")
    assert(stats.candidates > 0)
    assert(stats.cellsSelected <= index.nCells)
    assert(stats.cellsScored == index.nCells)
    assert(stats.lutDots == pq.P.toLong * pq.M)
    assert(stats.rescored <= 20L * 10)
  }

  test("the scan budget covers max(rescoreFactor*k, scanFraction*N) candidates") {
    val q = Fixtures.clusterCentre(nClusters, dim, 0)
    val (hits, stats) = AnnSearch.search(index, q, k = 60)
    assert(hits.nonEmpty)
    assert(stats.candidates >= math.min(4L * 60, index.total))
    val (_, small) = AnnSearch.search(index, q, k = 5, scanFraction = 0.05)
    assert(small.candidates >= (index.total * 0.05).toLong)
    assert(small.candidates <= stats.candidates)
  }

  test("search is deterministic") {
    val q = Fixtures.clusterCentre(nClusters, dim, 4)
    val a = AnnSearch.search(index, q, k = 12)
    val b = AnnSearch.search(index, q, k = 12)
    assert(a._1 == b._1)
    assert(a._2 == b._2)
  }

  test("k must be positive") {
    intercept[IllegalArgumentException] {
      AnnSearch.search(index, Fixtures.clusterCentre(nClusters, dim, 0), k = 0)
    }
  }
}
