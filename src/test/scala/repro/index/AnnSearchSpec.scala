package repro.index

import org.apache.spark.sql.functions.col
import org.scalacheck.Gen
import repro.SparkSpec
import repro.pq.ProductQuantizer
import repro.testkit.{Fixtures, PropertyChecks}
import repro.util.{Rng, VecOps}

class AnnSearchSpec extends SparkSpec with PropertyChecks {

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
    val byId = PostingRows.flatten(index).collect().map(e => e.patchId -> e.emb).toMap
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
    val byId = PostingRows.flatten(index).collect().map(e => e.patchId -> e.patchId / 80).toMap
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

  /** The search as a join plan: every directory cell scored and sorted as
    * boxed tuples, the selected cells' postings fetched with a left-semi
    * join, ADC top-`rescoreDepth` by a global `orderBy`/`limit`, exact
    * top-k on the driver. `AnnSearch.search` must answer exactly as this.
    */
  private def joinPlanSearch(index: InvertedMultiIndex, q: Array[Float], k: Int,
                             rescoreFactor: Int = 20,
                             scanFraction: Double = 0.35): (Seq[Candidate], AnnStats) = {
    val pq = index.pq
    val qn = VecOps.normalize(q)
    val table = pq.lut(qn)
    val scoredCells = index.cellDirectory.iterator.map { case (cell, count) =>
      (cell, count, pq.adcScore(table, pq.decodeCell(cell)))
    }.toIndexedSeq
    val ordered = scoredCells.sortBy { case (cell, _, s) => (-s, cell) }
    val minCover = math.max(rescoreFactor.toLong * k,
      math.ceil(index.total * scanFraction).toLong)
    val selected = Vector.newBuilder[Long]
    var covered = 0L
    for ((cell, count, _) <- ordered if covered < minCover) {
      selected += cell; covered += count
    }
    val cellSet = selected.result()
    import spark.implicits._
    val cellsDf = spark.createDataset(cellSet).toDF("cellId")
    val fetched = PostingRows.flatten(index).join(cellsDf, Seq("cellId"), "leftsemi").as[IndexedVec]
    val rescoreDepth = math.max(rescoreFactor.toLong * k, covered / 4).toInt
    val approx = fetched
      .map(e => (e.patchId, e.frameId, pq.adcScore(table, e.codes), e.box, e.emb))
      .toDF("patchId", "frameId", "approxScore", "box", "emb")
      .orderBy(col("approxScore").desc, col("patchId"))
      .limit(rescoreDepth)
      .as[(Long, Long, Double, repro.vit.BBox, Array[Float])]
      .collect()
    val exact = approx
      .map { case (pid, fid, _, box, emb) => Candidate(pid, fid, VecOps.dot(qn, emb), box) }
      .sortBy(h => (-h.score, h.patchId))
      .take(k)
      .toSeq
    (exact, AnnStats(pq.P.toLong * pq.M, scoredCells.size, cellSet.size, covered, approx.length))
  }

  test("search answers exactly as the join plan: hits and stats, seeded random queries") {
    val ks = Seq(1, 10, index.total.toInt)
    val fractions = Seq(0.05, 0.35, 1.0)
    var rescoreBeyondScan = 0
    for ((k, kIdx) <- ks.zipWithIndex; (f, fIdx) <- fractions.zipWithIndex; rep <- 0 until 3) {
      val seed = Rng.mix(kIdx * 10L + fIdx, rep.toLong)
      // Half the queries near a cluster centre, half anywhere.
      val centre = Fixtures.clusterCentre(nClusters, dim, rep % nClusters)
      val q = Array.tabulate(dim) { j =>
        val g = Rng.gaussian(seed, j.toLong).toFloat
        if (rep % 2 == 0) centre(j) + 0.3f * g else g
      }
      val label = s"k=$k scanFraction=$f rep=$rep"
      val got = AnnSearch.search(index, q, k, scanFraction = f)
      val want = joinPlanSearch(index, q, k, scanFraction = f)
      assert(got._1 == want._1, label)
      assert(got._2 == want._2, label)
      if (got._2.rescored == got._2.candidates && got._2.candidates < 20L * k) rescoreBeyondScan += 1
    }
    assert(rescoreBeyondScan > 0, "no query had a rescore depth beyond the candidates scanned")
  }

  test("cells tied at the rescore boundary are all scanned: search answers as the join plan") {
    // Hand-set codebooks on the diagonal and a query of 0.5s: every LUT
    // entry and cell score is exact in binary, so tied cells tie bit for bit.
    val diag = Array(1f, 0.5f, 0f, -1f)
    val handPq = ProductQuantizer(2, 2, 4, Array.fill(2)(diag.map(x => Array(x, x))))
    // (patch id, code in subspace 0, code in subspace 1); cell id = 4a + b.
    // Cell 0 scores 2.0; cells 2, 5 and 8 tie at 1.0, and cell 8, the
    // highest id, holds the lowest patch ids; cell 15 scores -2.0.
    val postings = Seq((10, 0, 0), (11, 0, 0), (40, 0, 2), (41, 0, 2), (30, 1, 1), (1, 2, 0), (2, 2, 0),
      (50, 3, 3), (51, 3, 3), (52, 3, 3), (53, 3, 3))
    val recs = postings.map { case (pid, a, b) =>
      // A step along the diagonal keeps the nearest centroid and varies the exact score.
      val e = ((pid * 5) % 7 - 3) * 0.03125f
      val emb = Array(diag(a) + e, diag(a) + e, diag(b), diag(b))
      repro.vit.PatchRec(pid.toLong, pid / 2L, 0L, isObject = true, 0, 0, 0, 0, 8, 8, emb)
    }
    import spark.implicits._
    val ds = spark.createDataset(recs).cache()
    val tied = InvertedMultiIndex.build(ds, handPq, nPartitions = 2)
    val q = Array.fill(4)(0.5f)
    val table = handPq.lut(VecOps.normalize(q))
    val boundary = Seq(2L, 5L, 8L).map(c => handPq.adcScore(table, handPq.decodeCell(c)))
    assert(boundary.map(java.lang.Double.doubleToRawLongBits).distinct.size == 1 && boundary.head == 1.0)
    assert(tied.cellIds.toSeq == Seq(0L, 2L, 5L, 8L, 15L))

    // rescoreDepth = max(1 * 3, 11 / 4) = 3: the covering prefix is cells
    // 0 and 2 (4 postings), but the third-best posting by (ADC, patch id)
    // is patch 1 of the tied cell 8.
    val got = AnnSearch.search(tied, q, k = 3, rescoreFactor = 1, scanFraction = 1.0)
    assert(got == joinPlanSearch(tied, q, 3, rescoreFactor = 1, scanFraction = 1.0))
    assert(got._1.map(_.patchId).toSet == Set(10L, 11L, 1L))
    assert(got._2.rescored == 3 && got._2.candidates == 11)
    for (k <- Seq(1, 2, 5, 11); rf <- Seq(1, 2); f <- Seq(0.1, 1.0))
      assert(AnnSearch.search(tied, q, k, rescoreFactor = rf, scanFraction = f) ==
        joinPlanSearch(tied, q, k, rescoreFactor = rf, scanFraction = f), s"k=$k rescoreFactor=$rf scanFraction=$f")
    tied.entries.unpersist()
    ds.unpersist()
  }

  test("bestFirst orders by score descending, then id, as a boxed sort does") {
    for (seed <- 0L until 5L; n <- Seq(0, 1, 2, 7, 300)) {
      // Few distinct scores, so ties (and a -0.0 vs 0.0 pair) are common.
      val scores = Array.tabulate(n) { i =>
        val s = (Rng.int(seed, i.toLong, 5) - 2) * 0.5
        if (s == 0.0 && i % 2 == 0) -0.0 else s
      }
      val ids = Array.tabulate(n)(i => Rng.int(seed, 1000L + i, 10 * n + 1).toLong)
      val want = (0 until n).sortBy(i => (-scores(i), ids(i)))
      assert(AnnSearch.bestFirst(scores, ids).toSeq == want, s"seed=$seed n=$n")
    }
  }

  test("bestCover selects the bestFirst prefix that reaches the cover, by weight or by count") {
    // n scores from a few distinct values (forced exact ties, -0.0 vs 0.0),
    // distinct ids, positive directory-count weights.
    val cases = for {
      n <- Gen.choose(0, 400)
      levels <- Gen.choose(1, 6)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val scores = Array.tabulate(n) { i =>
        val s = (Rng.int(seed, i.toLong, levels) - 2) * 0.25
        if (s == 0.0 && i % 3 == 0) -0.0 else s
      }
      val ids = (0L to 10L * n).sortBy(Rng.mix(seed, _)).take(n).toArray
      val weights = Array.tabulate(n)(i => 1L + Rng.int(seed, 5000L + i, 4))
      (scores, ids, weights)
    }
    def oracle(order: Array[Int], weight: Int => Long, cover: Long): Set[Int] = {
      var covered = 0L
      order.takeWhile { j => val take = covered < cover; covered += weight(j); take }.toSet
    }
    forAllGen(cases, n = 200) { case (scores, ids, weights) =>
      // All positions, and a subset of them in reverse order.
      for (among <- Seq(scores.indices.toArray, scores.indices.reverse.filter(_ % 2 == 0).toArray);
           weight <- Seq[Int => Long](weights(_), _ => 1L)) {
        val order = AnnSearch.bestFirst(scores, ids).filter(among.contains)
        val sum = order.map(weight).sum
        val prefixSum = order.take(order.length / 2).map(weight).sum
        for (cover <- Seq(0L, 1L, sum / 3, prefixSum, sum, sum + 7)) {
          val pos = among.clone()
          val n = AnnSearch.bestCover(scores, ids, pos, weight, cover)
          assert(pos.sorted.toSeq == among.sorted.toSeq, "pos must stay a permutation")
          assert(pos.take(n).toSet == oracle(order, weight, cover),
            s"n=${scores.length} among=${among.length} cover=$cover of $sum")
        }
      }
    }
  }

  test("k must be positive") {
    intercept[IllegalArgumentException] {
      AnnSearch.search(index, Fixtures.clusterCentre(nClusters, dim, 0), k = 0)
    }
  }
}
