package lovobench

import scala.collection.mutable
import repro.core._
import repro.encoder.TextEncoder
import repro.eval.{CostModel, Detection, GtObject, Metrics, QuerySpec}
import repro.index.{AnnStats, Candidate, HnswIndex}
import repro.video.{DatasetConfig, Datasets}

/** The workloads. Each is a closed loop with one client: the next
  * operation starts when the previous one returns. Each set-up runs one
  * `Lovo.build` in a fresh JVM, so the write path is timed on both.
  *
  *  - query: Bellevue, scale 1.0. `Lovo.query` (IVF-PQ fast search, then
  *           rerank): the analyst's path, where encoder, index and rerank
  *           all block the answer and the build is only set-up.
  *  - ann:   Cityscapes, scale 0.5. `Lovo.fastSearch` without rerank, once
  *           per index variant; BF is the exact oracle for recall. The index
  *           does nearly all the work, on a smaller corpus than query.
  */
object Loops {

  val cfg = LovoConfig()

  /** Lowest accepted mean AveP of the planted queries (rerank on). */
  val AvepFloor = 0.7
  /** Lowest accepted mean AveP of the planted queries from fast search only. */
  val FastAvepFloor = 0.6
  /** Lowest accepted mean recall@k against brute force. */
  val RecallFloor = 0.8

  private val variants = Seq(AnnVariant.IvfPq, AnnVariant.Bf, AnnVariant.Hnsw)

  private def planted(ds: DatasetConfig): Seq[QuerySpec] = repro.eval.Workloads.forDataset(ds.name)

  private def groundTruth(b: LovoBuild): Map[String, Seq[GtObject]] =
    planted(b.dataset).map(q =>
      q.id -> Metrics.groundTruth(b.frames, TextEncoder.parse(q.text).tokens)).toMap

  private def avep(cands: Seq[Candidate], gt: Seq[GtObject]): Double =
    Metrics.averagePrecision(cands.map(c => Detection(c.frameId, c.score, c.box)), gt)

  private def cachedMb(b: LovoBuild): Double =
    b.frames.sparkSession.sparkContext.getRDDStorageInfo
      .map(i => i.memSize + i.diskSize).sum / 1e6

  private def unpersist(b: LovoBuild): Unit = {
    b.frames.unpersist(blocking = true)
    b.patches.unpersist(blocking = true)
    b.index.entries.unpersist(blocking = true)
    b.meta.unpersist(blocking = true)
  }

  /** A fast search that must return min(k, entries) hits. */
  private def fast(b: LovoBuild, text: String, k: Int, v: AnnVariant,
                   g: Option[HnswIndex]): (Seq[Candidate], AnnStats) = {
    val r = Lovo.fastSearch(b, TextEncoder.parse(text), k, v, g)
    val want = math.min(k.toLong, b.counts.entries)
    require(r._1.size >= want, s"${AnnVariant.name(v)} returned ${r._1.size} of $want hits")
    r
  }

  private def build(run: Run, ds: DatasetConfig): (LovoBuild, Double) =
    Timed(Lovo.build(run.spark, ds, repro.eval.Workloads.plantSpecsFor(ds.name), cfg))

  /** Traced runs only: replay the build layer by layer and check that it
    * reproduces the untraced build exactly.
    */
  private def replayBuild(run: Run, b: LovoBuild, untracedS: Double): Unit =
    run.tracer.foreach { tr =>
      val (rb, s) = Timed(Replay.build(tr, run.spark, b.dataset,
        repro.eval.Workloads.plantSpecsFor(b.dataset.name), cfg))
      run.gate("replayed build matches Lovo.build",
        rb.counts == b.counts && rb.index.cellDirectory == b.index.cellDirectory,
        s"${rb.counts} / ${rb.index.nCells} cells vs ${b.counts} / ${b.index.nCells} cells")
      run.say(f"trace build: Lovo.build $untracedS%.3f s (first in the JVM), replayed build $s%.3f s (warm)")
      unpersist(rb)
    }

  /** Runs whole rounds of the generator, so every run's samples hold the
    * same mix of planted and key-phrase queries: the first round always,
    * and another while, at the mean round time so far, it would end within
    * `seconds`. Records the GC seconds spent meanwhile.
    */
  private def loop(run: Run, gen: QueryGen)(op: QueryItem => Unit): Unit = {
    val gc0 = Jvm.gcSeconds
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var rounds = 0
    while (rounds == 0 || elapsed * (rounds + 1) / rounds <= run.args.seconds) {
      gen.round().foreach(op)
      rounds += 1
    }
    run.layerExtras("jvm.gc_s") = Jvm.gcSeconds - gc0
    run.say(f"loop: ${rounds * gen.roundSize} queries in $rounds round(s), $elapsed%.3f s")
  }

  private def latencyMetrics(run: Run, what: String, xs: Seq[Double], alias: String): Unit = {
    require(xs.nonEmpty, s"no successful $what operation to time")
    val (pct, tail) = Stats.tail(xs)
    run.metric("op_p50_s", Stats.median(xs), "s", s"= ${alias}_p50_s: $what, median of ${xs.size}")
    run.say(s"samples ${alias}_s " + xs.map(x => f"$x%.3f").mkString(" "))
    run.say(f"report ${alias}_tail_s $tail%.6f s     $what, p$pct of ${xs.size}")
  }

  private def traceOverhead(run: Run, untraced: Seq[Double], traced: Seq[Double]): Unit =
    if (run.args.trace && traced.nonEmpty) {
      val (u, t) = (Stats.mean(untraced), Stats.mean(traced))
      run.layerExtras("trace.op_s") = t
      run.layerExtras("trace.overhead_s") = t - u
      run.say(f"trace ops: untraced mean $u%.4f s, traced mean $t%.4f s, overhead ${t - u}%.4f s")
    }

  private def modelIndex(run: Run, b: LovoBuild): Double = {
    val c = b.counts
    val s = CostModel.indexingIvfPq(c.entries, c.kmeansIters, cfg.pqSubspaces,
      cfg.pqCentroids, cfg.pqSubdim)
    run.layerExtras("model.index_s") = s
    s
  }

  // ---- query --------------------------------------------------------------

  def query(run: Run): Unit = {
    val ds = Datasets.bellevue
    val (b, buildS) = build(run, ds)
    replayBuild(run, b, buildS)
    val gen = new QueryGen(ds, b.counts.entries, run.args.seed, seededPerRound = 4)
    val gt = groundTruth(b)

    // Recall of the IVF-PQ fast stage against brute force on the planted
    // queries. It also warms the fast-search path before timing starts.
    val recalls = planted(ds).flatMap { q =>
      val k = gen.plantedK(q)
      for {
        (ivf, _) <- run.attempt(s"IVF-PQ ${q.id}")(fast(b, q.text, k, AnnVariant.IvfPq, None))
        (bf, _) <- run.attempt(s"BF ${q.id}")(fast(b, q.text, k, AnnVariant.Bf, None))
      } yield Stats.recall(ivf.map(_.patchId), bf.map(_.patchId))
    }
    // One untimed round, so the JIT has compiled the query path before timing.
    for (item <- gen.round())
      run.attempt(s"warm-up ${item.label}")(Lovo.query(b, TextEncoder.parse(item.text), item.k))
    val mb = cachedMb(b)
    val setupS = Jvm.sinceStartS
    run.say(f"set-up: Lovo.build $buildS%.3f s, then ground truth, recall pass and a warm-up round until $setupS%.3f s")
    modelIndex(run, b)

    val lat = mutable.ArrayBuffer[Double]()
    val traced = mutable.ArrayBuffer[Double]()
    val aveps = mutable.LinkedHashMap[String, Double]()
    val modelFast = mutable.ArrayBuffer[Double]()
    val modelRerank = mutable.ArrayBuffer[Double]()
    loop(run, gen) { item =>
      val res = run.attempt(s"query ${item.label}") {
        val (r, s) = Timed(Lovo.query(b, TextEncoder.parse(item.text), item.k))
        require(r.candidates.nonEmpty && r.candidates.size <= item.k,
          s"${r.candidates.size} answers for k=${item.k}")
        lat += s
        r
      }
      res.foreach { r =>
        item.planted.foreach(q => aveps(q.id) = avep(r.candidates, gt(q.id)))
        modelFast += CostModel.fastSearch(r.fastStats)
        r.rerank.foreach(rr => modelRerank += CostModel.rerank(rr))
      }
      run.tracer.foreach { tr =>
        val (rr, s) = Timed(Replay.query(tr, b, item.text, item.k))
        traced += s
        res.foreach(r => run.gate("replayed query matches Lovo.query",
          r.candidates == rr.candidates && r.fastStats == rr.fastStats, s"'${item.text}' k=${item.k}"))
      }
    }

    run.metric("setup_s", setupS, "s", "session, Bellevue build, recall pass, warm-up")
    latencyMetrics(run, "Lovo.query", lat.toSeq, "query")
    val avepMean = Stats.mean(aveps.values.toSeq)
    run.metric("avep_mean", avepMean, "ratio", s"planted ${aveps.keys.mkString(",")}, rerank on")
    val recall = Stats.mean(recalls)
    run.metric("recall_at_k", recall, "ratio", "IVF-PQ vs BruteForce, planted queries")
    run.say(f"report build_s         $buildS%.6f s     the set-up Lovo.build, first in the JVM")
    run.metric("cached_mb", mb, "MB", "Spark cached storage after build and warm-up")
    run.gate(f"planted AveP >= $AvepFloor", aveps.size == planted(ds).size && avepMean >= AvepFloor,
      aveps.toString)
    run.gate(f"IVF-PQ recall@k >= $RecallFloor", recalls.size == planted(ds).size &&
      recall >= RecallFloor, recalls.toString)
    run.layerExtras("model.fast_s") = Stats.mean(modelFast.toSeq)
    run.layerExtras("model.rerank_s") = Stats.mean(modelRerank.toSeq)
    run.say(f"model vs measured: query ${Stats.median(lat.toSeq)}%.4f s measured, " +
      f"${Stats.mean(modelFast.toSeq) + Stats.mean(modelRerank.toSeq)}%.4f s modeled " +
      f"(fast ${Stats.mean(modelFast.toSeq)}%.4f + rerank ${Stats.mean(modelRerank.toSeq)}%.4f)")
    traceOverhead(run, lat.toSeq, traced.toSeq)
    run.tracer.foreach { tr =>
      val sum = Seq("encoder.encode", "index.ann_search", "index.resolve", "rerank.rerank").map(tr.wallS).sum
      run.say(f"trace: encode + ann_search + resolve + rerank = $sum%.4f s per query")
    }
  }

  // ---- ann ----------------------------------------------------------------

  def ann(run: Run): Unit = {
    val ds = Datasets.cityscapes.scaled(0.5)
    val (b, buildS) = build(run, ds)
    replayBuild(run, b, buildS)
    val (g, hnswS) = Timed(run.tracer match {
      case Some(tr) => Replay.buildHnsw(tr, b)
      case None     => Lovo.buildHnsw(b)
    })
    val hnswBuildComps = g.distComps
    val gen = new QueryGen(ds, b.counts.entries, run.args.seed, seededPerRound = 2)
    val gt = groundTruth(b)
    // One untimed round of the timed IVF-PQ search, so the JIT has compiled
    // it before timing, and one call of each other variant.
    val warmUp = gen.round()
    for ((item, i) <- warmUp.zipWithIndex; v <- variants if v == AnnVariant.IvfPq || i == 0)
      run.attempt(s"warm-up ${AnnVariant.name(v)} ${item.label}")(fast(b, item.text, item.k, v, Some(g)))
    val mb = cachedMb(b)
    val setupS = Jvm.sinceStartS
    run.say(f"set-up: Lovo.build $buildS%.3f s, HNSW graph $hnswS%.3f s, then ground truth and a warm-up round until $setupS%.3f s")
    val modelIdx = modelIndex(run, b)
    val modelHnsw = CostModel.indexingHnsw(hnswBuildComps)
    run.layerExtras("model.hnsw_index_s") = modelHnsw

    val lat = variants.map(_ -> mutable.ArrayBuffer[Double]()).toMap
    val model = variants.map(_ -> mutable.ArrayBuffer[Double]()).toMap
    val untraced = mutable.ArrayBuffer[Double]()
    val traced = mutable.ArrayBuffer[Double]()
    val recall = mutable.LinkedHashMap[String, Double]()
    val hnswRecall = mutable.LinkedHashMap[String, Double]()
    val aveps = mutable.LinkedHashMap[String, Double]()
    val allRecalls = mutable.ArrayBuffer[(Double, Double)]()
    loop(run, gen) { item =>
      val res = variants.map { v =>
        v -> run.attempt(s"${AnnVariant.name(v)} ${item.label}") {
          val (r, s) = Timed(fast(b, item.text, item.k, v, Some(g)))
          lat(v) += s
          model(v) += CostModel.fastSearch(r._2)
          untraced += s
          r
        }
      }.toMap
      for (bf <- res(AnnVariant.Bf); ivf <- res(AnnVariant.IvfPq); h <- res(AnnVariant.Hnsw)) {
        val exact = bf._1.map(_.patchId)
        val (ri, rh) = (Stats.recall(ivf._1.map(_.patchId), exact), Stats.recall(h._1.map(_.patchId), exact))
        allRecalls += ((ri, rh))
        item.planted.foreach { q =>
          recall(q.id) = ri
          hnswRecall(q.id) = rh
          aveps(q.id) = avep(ivf._1, gt(q.id))
        }
      }
      run.tracer.foreach { tr =>
        for (v <- variants) {
          val ((_, cands, stats), s) = Timed(Replay.fastSearch(tr, b, item.text, item.k, v, Some(g)))
          traced += s
          res(v).foreach(r => run.gate("replayed fast search matches Lovo.fastSearch",
            r._1 == cands && r._2 == stats, s"${AnnVariant.name(v)} '${item.text}' k=${item.k}"))
        }
      }
    }

    run.metric("setup_s", setupS, "s", "session, Cityscapes build, HNSW graph, warm-up")
    latencyMetrics(run, "IVF-PQ Lovo.fastSearch", lat(AnnVariant.IvfPq).toSeq, "fast")
    val avepMean = Stats.mean(aveps.values.toSeq)
    run.metric("avep_mean", avepMean, "ratio", s"planted ${aveps.keys.mkString(",")}, IVF-PQ fast search only")
    val r = Stats.mean(recall.values.toSeq)
    run.metric("recall_at_k", r, "ratio", "IVF-PQ vs BruteForce, planted queries")
    run.say(f"report build_s         $buildS%.6f s     the set-up Lovo.build, first in the JVM")
    run.metric("cached_mb", mb, "MB", "Spark cached storage after build and warm-up")
    val hr = Stats.mean(hnswRecall.values.toSeq)
    val bfP50 = Stats.median(lat(AnnVariant.Bf).toSeq)
    val hnswP50 = Stats.median(lat(AnnVariant.Hnsw).toSeq)
    run.say(f"report bf_p50_s        $bfP50%.6f s     BruteForce fast search, median of ${lat(AnnVariant.Bf).size}")
    run.say(f"report hnsw_p50_s      $hnswP50%.6f s     HNSW fast search, median of ${lat(AnnVariant.Hnsw).size}")
    run.say(f"report hnsw_recall_at_k $hr%.6f ratio HNSW vs BruteForce, planted queries")
    run.say(f"report hnsw_build_s    $hnswS%.6f s     Lovo.buildHnsw, $hnswBuildComps distance computations")
    run.say(f"report recall over all ${allRecalls.size} queries: IVF-PQ ${Stats.mean(allRecalls.map(_._1).toSeq)}%.4f, " +
      f"HNSW ${Stats.mean(allRecalls.map(_._2).toSeq)}%.4f")
    run.gate(f"fast-search AveP >= $FastAvepFloor",
      aveps.size == planted(ds).size && avepMean >= FastAvepFloor, aveps.toString)
    run.gate(f"IVF-PQ recall@k >= $RecallFloor", recall.size == planted(ds).size && r >= RecallFloor,
      recall.toString)
    run.gate(f"HNSW recall@k >= $RecallFloor", hnswRecall.size == planted(ds).size && hr >= RecallFloor,
      hnswRecall.toString)

    // Orders that TableVBench asserts from the cost model, set beside the
    // measured order. Reported only; a disagreement is not a failure.
    val med = variants.map(v => v -> Stats.median(lat(v).toSeq)).toMap
    val mod = variants.map(v => v -> Stats.mean(model(v).toSeq)).toMap
    for (v <- Seq(AnnVariant.IvfPq, AnnVariant.Hnsw)) {
      val claim = s"BF fast > ${AnnVariant.name(v)} fast"
      val holds = med(AnnVariant.Bf) > med(v)
      run.say(f"order $claim: model ${mod(AnnVariant.Bf)}%.4f vs ${mod(v)}%.4f s, measured " +
        f"${med(AnnVariant.Bf)}%.4f vs ${med(v)}%.4f s" + (if (holds) "" else " -- measured DISAGREES"))
    }
    // The IVF-PQ index build is pq.train + index.build when traced; the
    // untraced run only has the whole Lovo.build, an upper bound.
    val (ivfBuildS, ivfWhat) = run.tracer match {
      case Some(tr) => (tr.wallS("pq.train") + tr.wallS("index.build"), "pq.train + index.build")
      case None     => (buildS, "the whole Lovo.build")
    }
    run.say(f"order HNSW build > IVF-PQ build: model $modelHnsw%.3f vs $modelIdx%.3f s, measured " +
      f"$hnswS%.3f s vs $ivfBuildS%.3f s ($ivfWhat)" +
      (if (hnswS > ivfBuildS) "" else " -- measured DISAGREES"))
    run.layerExtras("model.fast_s") = mod(AnnVariant.IvfPq)
    traceOverhead(run, untraced.toSeq, traced.toSeq)
  }
}
