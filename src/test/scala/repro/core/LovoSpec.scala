package repro.core

import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.eval.{Detection, Metrics, Workloads}
import repro.index.PostingRows
import repro.testkit.{CachedStorage, Fixtures, PropertyChecks, SparkWork}
import repro.vit.PatchGrid

class LovoSpec extends SparkSpec with PropertyChecks {

  private lazy val b = Fixtures.cityscapes
  private lazy val build = b.build

  test("build counts are consistent") {
    val c = build.counts
    assert(c.rawFrames == b.dataset.totalRawFrames)
    assert(math.abs(c.keyFrames - c.rawFrames / b.dataset.keyPeriod) <= b.dataset.nVideos)
    assert(c.entries == c.keyFrames * PatchGrid.K)
    assert(c.storageBytes == c.entries * repro.vit.VideoSummary.bytesPerEntry)
  }

  test("index and metadata cover every patch") {
    assert(build.index.total == build.counts.entries)
    assert(build.meta.count() == build.counts.entries)
  }

  test("fast search retrieves frames containing planted positives for a simple query") {
    val spec = Workloads.byId("Q1.1")
    val parsed = TextEncoder.parse(spec.text)
    val gt = b.gt("Q1.1")
    val (cands, stats) = Lovo.fastSearch(build, parsed, k = 10 * spec.nPos)
    assert(cands.nonEmpty)
    assert(stats.candidates < build.index.total, "fast search must not scan everything")
    val gtFrames = gt.map(_.frameId).toSet
    val hitFrames = cands.map(_.frameId).toSet
    assert(gtFrames.intersect(hitFrames).size.toDouble / gtFrames.size >= 0.5,
      s"fast search found ${gtFrames.intersect(hitFrames).size} of ${gtFrames.size} GT frames")
  }

  test("end-to-end query with rerank achieves reasonable AveP on a simple query") {
    val spec = Workloads.byId("Q1.1")
    val parsed = TextEncoder.parse(spec.text)
    val res = Lovo.query(build, parsed, k = 10 * spec.nPos)
    val dets = res.candidates.map(c => Detection(c.frameId, c.score, c.box))
    val avep = Metrics.averagePrecision(dets, b.gt("Q1.1"))
    assert(avep > 0.4, s"AveP=$avep for Q1.1 at test scale")
  }

  test("rerank beats no-rerank on the relational query (the paper's core ablation)") {
    val spec = Workloads.byId("Q1.2")
    val parsed = TextEncoder.parse(spec.text)
    val k = 10 * spec.nPos
    val withR = Lovo.query(build, parsed, k, useRerank = true)
    val withoutR = Lovo.query(build, parsed, k, useRerank = false)
    val gt = b.gt("Q1.2")
    val a = Metrics.averagePrecision(withR.candidates.map(c => Detection(c.frameId, c.score, c.box)), gt)
    val o = Metrics.averagePrecision(withoutR.candidates.map(c => Detection(c.frameId, c.score, c.box)), gt)
    // at this tiny scale both stages can saturate; the strict gap is
    // asserted at bench scale (TableIVBench) — here: no regression + quality
    assert(a >= o, s"rerank AveP $a must not fall below fast-search-only $o")
    assert(a > 0.5, s"rerank AveP $a too low")
  }

  test("w/o rerank returns the raw fast-search candidates") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    val res = Lovo.query(build, parsed, k = 20, useRerank = false)
    assert(res.rerank.isEmpty)
    assert(res.candidates.size <= 20)
    assert(res.candidates.forall(_.patchId >= 0))
  }

  test("reranked results carry decoder boxes (patchId = -1 sentinel)") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    val res = Lovo.query(build, parsed, k = 20, useRerank = true)
    assert(res.rerank.isDefined)
    assert(res.candidates.forall(_.patchId == -1L))
    assert(res.rerank.get.framesProcessed > 0)
  }

  test("BF and HNSW variants answer the same query") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    val (bf, bfStats) = Lovo.fastSearch(build, parsed, k = 30, AnnVariant.Bf)
    val g = Lovo.buildHnsw(build)
    val (hn, _) = Lovo.fastSearch(build, parsed, k = 30, AnnVariant.Hnsw, Some(g))
    assert(bf.size == 30 && hn.size == 30)
    assert(bfStats.candidates == build.index.total)
    // graph recall vs the exact scan
    val overlap = bf.map(_.patchId).toSet.intersect(hn.map(_.patchId).toSet).size / 30.0
    assert(overlap >= 0.7, s"HNSW overlap with BF = $overlap")
  }

  test("HNSW variant without a prebuilt graph is rejected") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    intercept[IllegalArgumentException] {
      Lovo.fastSearch(build, parsed, k = 5, AnnVariant.Hnsw, None)
    }
  }

  test("unknown-token, empty and k >= entries queries degrade gracefully on every variant") {
    val n = build.counts.entries
    val q11 = Workloads.byId("Q1.1").text
    val cases = Seq(("zzz", 20L), ("", 20L), ("zzz", n + 10), (q11, n), (q11, n + 10))
    for ((text, k) <- cases; v <- AnnVariant.all) {
      val parsed = TextEncoder.parse(text)
      val hnsw = if (v == AnnVariant.Hnsw) Some(b.hnsw._1) else None
      val label = s"${AnnVariant.name(v)} '$text' k=$k"
      val nHits = Lovo.fastSearch(build, parsed, k.toInt, v, hnsw)._1.size
      assert(nHits == math.min(k, n), label)
      val nCands = Lovo.query(build, parsed, k.toInt, v, hnsw = hnsw).candidates.size
      assert(nCands <= k, label)
    }
    val parsed = TextEncoder.parse(q11)
    for (v <- AnnVariant.all) {
      val hnsw = if (v == AnnVariant.Hnsw) Some(b.hnsw._1) else None
      withClue(s"${AnnVariant.name(v)} k=0: ") {
        intercept[IllegalArgumentException](Lovo.fastSearch(build, parsed, 0, v, hnsw))
        intercept[IllegalArgumentException](Lovo.query(build, parsed, 0, v, hnsw = hnsw))
      }
    }
  }

  /** The posting blocks the index caches and the frame blocks the build
    * caches, one per non-empty partition of each.
    */
  private lazy val blocks = build.index.entries.count()
  private lazy val frameBlocks = build.frameBlocks.count()

  /** Exactly `indexScans + rerankScans` narrow jobs, one task per core,
    * and no SQL execution. Each is a plain RDD job that reads every block
    * of its cache once (a recomputed block would read none): the index
    * scans, which run first, read every posting block, and the rerank
    * every frame block.
    */
  private def assertNarrow(work: SparkWork, indexScans: Int, rerankScans: Int = 0, label: String = ""): Unit = {
    val clue = s"$label $work"
    assert(work.jobs == indexScans + rerankScans, clue)
    assert(work.shuffleStages == 0, clue)
    assert(work.tasksPerJob.forall(_ <= spark.sparkContext.defaultParallelism), clue)
    assert(work.sqlExecutions == 0, clue)
    assert(work.inputRecordsPerJob == Seq.fill(indexScans)(blocks) ++ Seq.fill(rerankScans)(frameBlocks), clue)
  }

  test("an IVF-PQ query with rerank runs at most 2 narrow Spark jobs, one task per core") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.2").text)
    Lovo.query(build, parsed, k = 40) // fills any lazily built cache first
    val (res, work) = SparkWork.during(spark.sparkContext)(Lovo.query(build, parsed, k = 40))
    assert(res.rerank.exists(_.framesProcessed > 0))
    assertNarrow(work, indexScans = 1, rerankScans = 1)
  }

  test("an IVF-PQ fastSearch runs exactly 1 narrow Spark job, one task per core") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.2").text)
    // no warm-up call: the build leaves nothing to fill lazily
    val ((cands, _), work) = SparkWork.during(spark.sparkContext)(Lovo.fastSearch(build, parsed, k = 40))
    assert(cands.nonEmpty)
    assertNarrow(work, indexScans = 1)
  }

  test("a BF fastSearch runs exactly 1 narrow Spark job, one task per core") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.2").text)
    val ((cands, _), work) = SparkWork.during(spark.sparkContext)(
      Lovo.fastSearch(build, parsed, k = 40, AnnVariant.Bf))
    assert(cands.size == 40)
    assertNarrow(work, indexScans = 1)
  }

  test("the IVF-PQ scan ships at most k hits per block, whatever the scan budget") {
    // The scan job's result bytes stay flat from a 5 % to a full scan: each
    // block returns its own exact top-k, not the postings it rescored.
    val q = TextEncoder.fastEmbedding(TextEncoder.parse(Workloads.byId("Q1.2").text))
    def scanBytes(f: Double): Long = {
      val ((hits, stats), work) = SparkWork.during(spark.sparkContext)(
        repro.index.AnnSearch.search(build.index, q, k = 10, scanFraction = f))
      assert(hits.size == 10 && stats.rescored > blocks * 10, s"f=$f $stats")
      assert(work.jobs == 1, work.toString)
      work.resultBytesPerJob.head
    }
    val (small, full) = (scanBytes(0.05), scanBytes(1.0))
    assert(full <= 1.5 * small, s"result bytes $full at scanFraction 1.0 against $small at 0.05")
  }

  test("per variant and entry point, a search runs its exact count of narrow Spark jobs") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.2").text)
    // The index scan is one job; the HNSW graph lives on the driver. A
    // reranked query adds the rerank's one job; without rerank a query is
    // a fast search.
    val searchJobs = Map[AnnVariant, Int](AnnVariant.IvfPq -> 1, AnnVariant.Bf -> 1, AnnVariant.Hnsw -> 0)
    val g = b.hnsw._1 // builds the fixture and its graph before any count
    for (v <- AnnVariant.all) {
      val hnsw = if (v == AnnVariant.Hnsw) Some(g) else None
      val calls = Seq[(String, Int, () => Int)](
        ("fastSearch", 0, () => Lovo.fastSearch(build, parsed, k = 40, v, hnsw)._1.size),
        ("query", 1, () => Lovo.query(build, parsed, k = 40, v, hnsw = hnsw).candidates.size),
        ("query without rerank", 0,
          () => Lovo.query(build, parsed, k = 40, v, useRerank = false, hnsw = hnsw).candidates.size))
      for ((entry, rerankJobs, call) <- calls) {
        val label = s"${AnnVariant.name(v)} $entry:"
        val (n, work) = SparkWork.during(spark.sparkContext)(call())
        assert(n > 0 && n <= 40, label)
        assertNarrow(work, searchJobs(v), rerankJobs, label)
      }
    }
  }

  test("fastSearch candidates carry the boxes the metadata store resolves, on every variant") {
    // The store is built from the patches (the summary, recomputed), not
    // from the posting blocks; resolve keeps each candidate's patch id and
    // score and takes frame and box from the store.
    val store = repro.index.MetadataStore.build(build.patches)
    try {
      forAllGen(Fixtures.keyPhraseQueries(b.dataset), n = 8) { case (text, k) =>
        for (v <- AnnVariant.all) {
          val hnsw = if (v == AnnVariant.Hnsw) Some(b.hnsw._1) else None
          val label = s"${AnnVariant.name(v)} '$text' k=$k"
          val (cands, _) = Lovo.fastSearch(build, TextEncoder.parse(text), k, v, hnsw)
          assert(cands.size == k, label)
          assert(cands == repro.index.MetadataStore.resolve(store, cands), label)
        }
      }
    } finally store.unpersist(blocking = true)
  }

  test("Lovo.buildHnsw runs exactly one narrow Spark job, with no shuffle stage") {
    val (g, work) = SparkWork.during(spark.sparkContext)(Lovo.buildHnsw(build))
    assert(g.size == build.counts.entries)
    assertNarrow(work, indexScans = 1)
  }

  test("Lovo.build runs 7 Spark jobs, none per Lloyd iteration, and rebuilds the same index") {
    val (again, work) = SparkWork.during(spark.sparkContext)(
      Lovo.build(spark, b.dataset, Workloads.plantSpecsFor(b.dataset.name), build.cfg))
    try {
      assert(again.counts == build.counts)
      def coords(x: LovoBuild) = x.index.pq.codebooks.flatten.flatten.toSeq
      assert(coords(again) == coords(build))
      assert(again.index.cellDirectory == build.index.cellDirectory)
      assert(work.jobs == 7, work.toString)
    } finally { again.frameBlocks.unpersist(); again.index.entries.unpersist() }
  }

  test("Lovo.build leaves exactly the frames and the posting blocks cached and loaded, no metadata store and no patches") {
    val sc = spark.sparkContext
    val before = CachedStorage.list(sc).map(_.id).toSet
    val again = Lovo.build(spark, b.dataset, Workloads.plantSpecsFor(b.dataset.name), build.cfg)
    try {
      val ids = Set(again.frameBlocks.id, again.index.entries.id)
      val added = CachedStorage.list(sc).filterNot(r => before(r.id))
      assert(added.size == 2 && added.map(_.id).toSet == ids, added.toString)
      assert(added.forall(_.loaded), added.toString)
      assert(again.frames.storageLevel == StorageLevel.NONE && CachedStorage.rddOf(again.frames).isEmpty)
      assert(again.meta.storageLevel == StorageLevel.NONE && CachedStorage.rddOf(again.meta).isEmpty)
      assert(again.patches.storageLevel == StorageLevel.NONE)
    } finally { again.frameBlocks.unpersist(blocking = true); again.index.entries.unpersist(blocking = true) }
  }

  test("releasing the patch cache changes no answer and re-plans no loaded store") {
    val queries = Seq("Q1.1", "Q1.2").map(id => TextEncoder.parse(Workloads.byId(id).text))
    def answers() = for (parsed <- queries; v <- AnnVariant.all) yield {
      val hnsw = if (v == AnnVariant.Hnsw) Some(b.hnsw._1) else None
      (Lovo.fastSearch(build, parsed, k = 40, v, hnsw), Lovo.query(build, parsed, k = 40, v, hnsw = hnsw))
    }
    // Both stores are RDDs, which Spark never re-plans: they stay listed
    // under their ids, every partition loaded.
    val ids = Seq(build.frameBlocks.id, build.index.entries.id)
    // The build as it stood before its last step, with the patch cache loaded.
    build.patches.cache().count()
    val before = answers()
    build.patches.unpersist(blocking = true)
    assert(answers() == before)
    val cached = CachedStorage.list(spark.sparkContext).filter(r => ids.contains(r.id))
    assert(cached.size == ids.size && cached.forall(_.loaded), cached.toString)
    assert(build.patches.storageLevel == StorageLevel.NONE)
  }

  test("the cached posting blocks recompute from their own lineage, with the patch cache released") {
    val sc = spark.sparkContext
    val again = Lovo.build(spark, b.dataset, Workloads.plantSpecsFor(b.dataset.name), build.cfg)
    val entries = again.index.entries
    try {
      assert(again.patches.storageLevel == StorageLevel.NONE)
      val queries = Seq("Q1.1", "Q1.2").map(id => TextEncoder.parse(Workloads.byId(id).text))
      def answers() = {
        val g = Lovo.buildHnsw(again)
        for (parsed <- queries; v <- AnnVariant.all) yield {
          val hnsw = if (v == AnnVariant.Hnsw) Some(g) else None
          (Lovo.fastSearch(again, parsed, k = 40, v, hnsw), Lovo.query(again, parsed, k = 40, v, hnsw = hnsw))
        }
      }
      def rows() = PostingRows.flatten(again.index).collect()
        .map(r => (r.patchId, r.frameId, r.box, r.codes.toSeq, r.cellId, r.emb.toSeq)).sortBy(_._1).toSeq
      val (rowsBefore, answersBefore) = (rows(), answers())
      entries.unpersist(blocking = true)
      assert(!CachedStorage.list(sc).exists(_.id == entries.id), "the blocks are evicted")
      entries.persist(StorageLevel.MEMORY_AND_DISK)
      val directory = entries.flatMap(blk => blk.cells.indices.map(c =>
        blk.cells(c) -> (blk.start(c + 1) - blk.start(c)).toLong)).collect().toMap
      assert(directory == again.index.cellDirectory)
      assert(rows() == rowsBefore)
      assert(answers() == answersBefore)
      assert(CachedStorage.list(sc).exists(r => r.id == entries.id && r.loaded))
    } finally { again.frameBlocks.unpersist(blocking = true); entries.unpersist(blocking = true) }
  }

  test("a reranked query equals rerank over fastSearch's resolved candidates, on every variant") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.2").text)
    for (v <- AnnVariant.all) {
      val hnsw = if (v == AnnVariant.Hnsw) Some(b.hnsw._1) else None
      val label = AnnVariant.name(v)
      val (cands, fastStats) = Lovo.fastSearch(build, parsed, k = 40, v, hnsw)
      val frameOrder = cands.sortBy(c => (-c.score, c.frameId)).map(_.frameId).distinct
      val rr = repro.rerank.CrossModalRerank.rerank(build.frames, frameOrder, parsed, build.cfg.rerank)
      val res = Lovo.query(build, parsed, k = 40, v, hnsw = hnsw)
      assert(res.rerank.contains(rr), label)
      assert(res.fastStats == fastStats, label)
      assert(res.candidates == rr.objects.take(40).map(o =>
        repro.index.Candidate(-1L, o.frameId, o.score, o.box)), label)
    }
  }

  test("a collection with fewer entries than PQ centroids builds and answers on every variant") {
    import spark.implicits._
    val n = 20
    assert(n < build.cfg.pqCentroids)
    val patches = build.patches.orderBy($"patchId").limit(n).cache()
    val pq = repro.pq.ProductQuantizer.train(patches.map(_.emb).rdd, build.cfg.pqSubspaces,
      build.cfg.pqSubdim, build.cfg.pqCentroids, build.cfg.kmeansIters)
    val index = repro.index.InvertedMultiIndex.build(patches, pq, build.cfg.indexPartitions)
    val small = build.copy(patches = patches, index = index,
      meta = repro.index.MetadataStore.fromIndex(index),
      counts = build.counts.copy(entries = n.toLong))
    assert(index.total == n)
    val g = Lovo.buildHnsw(small)
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    for (v <- AnnVariant.all; k <- Seq(5, n + 10)) {
      val hnsw = if (v == AnnVariant.Hnsw) Some(g) else None
      val label = s"${AnnVariant.name(v)} k=$k"
      val (cands, _) = Lovo.fastSearch(small, parsed, k, v, hnsw)
      assert(cands.size == math.min(k, n), label)
      val res = Lovo.query(small, parsed, k, v, hnsw = hnsw)
      assert(res.rerank.exists(_.framesProcessed > 0), label)
      assert(res.candidates.nonEmpty && res.candidates.size <= k, label)
    }
  }

  test("queries are deterministic end to end") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.2").text)
    val a = Lovo.query(build, parsed, k = 40)
    val c = Lovo.query(build, parsed, k = 40)
    assert(a.candidates == c.candidates)
  }

  test("LovoConfig validates PQ dimensions") {
    intercept[IllegalArgumentException] { LovoConfig(pqSubspaces = 3) }
  }

  test("LovoConfig rejects a rescoreFactor below 1") {
    intercept[IllegalArgumentException] { LovoConfig(rescoreFactor = 0) }
    assert(LovoConfig(rescoreFactor = 1).rescoreFactor == 1)
  }

  test("AnnVariant names round-trip") {
    assert(AnnVariant.all.map(AnnVariant.name).toSet == Set("BF", "IVF-PQ", "HNSW"))
  }
}
