package repro.index

import repro.{Oracle, SparkSpec}
import repro.pq.ProductQuantizer
import repro.testkit.{Fixtures, SparkWork}

class InvertedMultiIndexSpec extends SparkSpec {

  private lazy val patches = {
    import spark.implicits._
    spark.createDataset(Fixtures.clusteredPatches(6, 80, 32)).cache()
  }
  private lazy val pq = ProductQuantizer.train(
    { import spark.implicits._; patches.map(_.emb).rdd }, P = 4, m = 8, M = 8, iters = 5)
  private lazy val index = InvertedMultiIndex.build(patches, pq, nPartitions = 4)
  private lazy val blocks = index.entries.collect()

  test("total equals the number of stored vectors") {
    assert(index.total == patches.count())
  }

  test("cell directory counts sum to total") {
    assert(index.cellDirectory.values.sum == index.total)
    assert(index.nCells == index.cellDirectory.size)
    assert(index.nCells >= 1)
  }

  test("entries' codes match pq.encode of their embedding") {
    // A posting's codes are its cell's code word.
    val d = pq.dim
    for (b <- blocks; c <- b.cells.indices; j <- b.start(c) until b.start(c + 1)) {
      val emb = b.embs.slice(j * d, (j + 1) * d)
      assert(pq.decodeCell(b.cells(c)).toSeq == pq.encode(emb).toSeq, s"patch ${b.patchIds(j)}")
    }
  }

  test("every patch appears in exactly one block, with its frame and embedding") {
    val stored = blocks.flatMap(b => b.patchIds.indices.map(j =>
      b.patchIds(j) -> (b.frameIds(j), b.embs.slice(j * pq.dim, (j + 1) * pq.dim).toSeq)))
    val want = Fixtures.clusteredPatches(6, 80, 32).map(p => p.patchId -> (p.frameId, p.emb.toSeq))
    assert(stored.length == want.size)
    assert(stored.toMap == want.toMap)
  }

  test("every posting's box is its patch's px, py, pw, ph, bit for bit") {
    def bits(xs: Seq[Double]) = xs.map(java.lang.Double.doubleToRawLongBits)
    val want = Fixtures.clusteredPatches(6, 80, 32).map(p => p.patchId -> bits(Seq(p.px, p.py, p.pw, p.ph))).toMap
    val stored = blocks.flatMap(b => b.patchIds.indices.map(j => b.patchIds(j) -> bits(b.boxes.slice(4 * j, 4 * j + 4).toSeq)))
    assert(stored.length == want.size)
    for ((pid, box) <- stored) assert(box == want(pid), s"patch $pid")
  }

  test("each block's cells ascend strictly, its offsets are monotone, and a cell's postings ascend by patch id") {
    assert(blocks.nonEmpty && blocks.length <= 4)
    for (b <- blocks) {
      val n = b.patchIds.length
      assert(b.cells.nonEmpty)
      assert(b.cells.sliding(2).forall(w => w.length < 2 || w(0) < w(1)))
      assert(b.start.length == b.cells.length + 1 && b.start.head == 0 && b.start.last == n)
      assert(b.start.sliding(2).forall(w => w(0) < w(1)), "every listed cell holds a posting")
      assert(b.frameIds.length == n && b.boxes.length == 4 * n && b.embs.length == n * pq.dim)
      for (c <- b.cells.indices) {
        val ids = b.patchIds.slice(b.start(c), b.start(c + 1))
        assert(ids.sliding(2).forall(w => w.length < 2 || w(0) < w(1)))
        assert(ids.length == index.cellDirectory(b.cells(c)))
      }
    }
    // A cell lives in one block only.
    assert(blocks.flatMap(_.cells).distinct.length == index.nCells)
  }

  test("clustered vectors concentrate into few cells") {
    // 6 clusters in 4096 possible cells: the populated-cell count must be
    // well below the vector count (the point of the inverted structure),
    // and the biggest posting lists must hold many vectors each.
    assert(index.nCells < index.total / 2, s"nCells=${index.nCells}, total=${index.total}")
    val topPostings = index.cellDirectory.values.toSeq.sorted.reverse.take(6)
    assert(topPostings.forall(_ >= 10), s"top posting sizes: $topPostings")
  }

  test("posting-list sizes match a DuckDB GROUP BY (oracle)") {
    import spark.implicits._
    // The oracle groups the patches by the cell pq.encode gives them; the
    // directory under test comes from the posting blocks.
    val quantizer = pq
    val patchCells = patches
      .map(p => (quantizer.cellId(quantizer.encode(p.emb)).toString, p.patchId.toString))
      .toDF("cellId", "patchId")
    val directory = index.cellDirectory.toSeq
      .map { case (cell, n) => (cell.toString, n.toString) }
      .toDF("cellId", "n")
    Oracle.assertEquivalent(
      directory,
      "SELECT cellId, CAST(COUNT(*) AS VARCHAR) AS n FROM entries GROUP BY cellId",
      "entries" -> patchCells)
  }

  test("build is deterministic") {
    val again = InvertedMultiIndex.build(patches, pq, nPartitions = 4)
    assert(again.cellDirectory == index.cellDirectory)
    assert(again.total == index.total)
    assert(again.entries.collect().map(_.patchIds.toSeq).toSet == blocks.map(_.patchIds.toSeq).toSet)
    again.entries.unpersist()
  }

  test("build and its directory collect run exactly one shuffle stage") {
    patches.count() // the input is cached before the build is counted
    val (again, work) = SparkWork.during(spark.sparkContext)(InvertedMultiIndex.build(patches, pq, nPartitions = 4))
    assert(again.total == index.total)
    // One exchange (the repartition by cell): the stage that writes it and
    // the stage that reads it; the directory collect reads the cache.
    assert(work.shuffleMapStages == 1, work.toString)
    assert(work.shuffleStages == 2, work.toString)
    again.entries.unpersist()
  }

  test("more partitions than entries leaves some empty, and every variant still answers k >= entries") {
    import spark.implicits._
    val few = spark.createDataset(Fixtures.clusteredPatches(2, 3, 32)).cache()
    val small = InvertedMultiIndex.build(few, pq, nPartitions = 16)
    val n = small.total.toInt
    assert(n == 6)
    assert(small.entries.count() < 16, "some partitions hold no posting and yield no block")
    val q = Fixtures.clusterCentre(2, 32, 0)
    val g = Hnsw.build(small)
    assert(g.size == n)
    for (k <- Seq(n, n + 5)) {
      val (bf, _) = BruteForce.search(small, q, k)
      val (ivf, stats) = AnnSearch.search(small, q, k)
      val (hnsw, _) = Hnsw.search(g, q, k)
      assert(bf.size == n && ivf.size == n && hnsw.size == n, s"k=$k")
      assert(ivf == bf, s"k=$k: scanning every cell, IVF-PQ is exact")
      assert(hnsw.map(_.patchId).toSet == bf.map(_.patchId).toSet, s"k=$k")
      assert(stats.candidates == n && stats.cellsSelected == small.nCells, s"k=$k")
    }
    small.entries.unpersist()
    few.unpersist()
  }

  test("more than 256 centroids per subspace build, and a full scan answers as BruteForce") {
    val wide = ProductQuantizer.train(
      { import spark.implicits._; patches.map(_.emb).rdd }, P = 4, m = 8, M = 300, iters = 2)
    val big = InvertedMultiIndex.build(patches, wide, nPartitions = 4)
    assert(big.total == index.total)
    assert(big.cellIds.exists(cell => wide.decodeCell(cell).exists(_ >= 256)),
      "some posting's code word uses a centroid past 255")
    // 20 * k >= total, so every scanned posting is rescored exactly.
    assert(20L * 25 >= big.total)
    for (c <- 0 until 6; k <- Seq(25, 60)) {
      val q = Fixtures.clusterCentre(6, 32, c)
      val (ivf, stats) = AnnSearch.search(big, q, k, scanFraction = 1.0)
      assert(ivf == BruteForce.search(big, q, k)._1, s"cluster $c k=$k")
      assert(stats.candidates == big.total, s"cluster $c k=$k")
    }
    big.entries.unpersist()
  }
}
