package lovobench

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  * `--workload query|ann --seed N --seconds S --trace 0|1`.
  *
  * Prints a readable report, then as its last line one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * of an untraced run, or the per-layer metrics of a traced one.
  */
object Main {

  val Workloads: Map[String, Run => Unit] =
    Map("query" -> Loops.query, "ann" -> Loops.ann)

  /** Spans recorded around the program's layer calls, in layer order. */
  val Spans: Seq[String] = Seq(
    "video.select", "vit.summarize", "pq.train", "index.build", "index.meta_build",
    "index.hnsw_build", "encoder.encode", "index.ann_search", "index.bf_search",
    "index.hnsw_search", "index.resolve", "rerank.rerank")

  /** Per-call counts recorded at the span boundaries, with their units. */
  val Counts: Seq[(String, String)] = Seq(
    "video.raw_frames" -> "count", "video.key_frames" -> "count", "vit.entries" -> "count",
    "index.cells" -> "count", "index.entries_per_cell" -> "ratio",
    "index.cells_scored" -> "count", "index.cells_selected" -> "count",
    "index.candidates" -> "count", "index.rescored" -> "count",
    "index.scan_ratio" -> "ratio", "index.hit_ratio" -> "ratio",
    "index.hnsw_dist_comps" -> "count", "index.hnsw_build_dist_comps" -> "count",
    "rerank.frames" -> "count", "rerank.image_tokens" -> "count")

  /** Values measured by the workload rather than at a span, all seconds. */
  val Extras: Seq[String] = Seq(
    "jvm.gc_s", "trace.op_s", "trace.overhead_s",
    "model.fast_s", "model.rerank_s", "model.index_s", "model.hnsw_index_s")

  def parseArgs(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      w <- need("workload").filterOrElse(Workloads.contains, s"unknown workload; choose one of ${Workloads.keys.toSeq.sorted.mkString(", ")}")
      seed <- need("seed").flatMap(_.toLongOption.toRight("--seed must be an integer"))
      secs <- need("seconds").flatMap(_.toIntOption.filter(_ > 0).toRight("--seconds must be a positive integer"))
      tr <- need("trace").filterOrElse(Set("0", "1"), "--trace must be 0 or 1")
      _ <- Either.cond(argv.length == 2 * kv.size, (), "arguments come as --key value pairs")
    } yield Args(w, seed, secs, tr == "1")
  }

  private def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("lovobench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def perLayer(run: Run, tr: Tracer): Seq[(String, Double, String)] = {
    val spans = Spans.flatMap { s =>
      val (jobs, tasks, taskS, rows) = tr.sparkPerCall(s)
      Seq((s"$s.wall_s", tr.wallS(s), "s"), (s"$s.spark_jobs", jobs, "count"),
        (s"$s.spark_tasks", tasks, "count"), (s"$s.task_s", taskS, "s"),
        (s"$s.rows_read", rows, "count"))
    }
    val counts = Counts.map { case (c, unit) => (c, tr.countMean(c), unit) }
    val rerankRows = tr.sparkPerCall("rerank.rerank")._4
    val frameRatio = if (rerankRows > 0) tr.countMean("rerank.frames") / rerankRows else 0.0
    val extras = Extras.map(e => (e, run.layerExtras.getOrElse(e, 0.0), "s"))
    spans ++ counts ++ Seq(("rerank.frame_ratio", frameRatio, "ratio")) ++ extras
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv) match {
      case Right(a) => a
      case Left(err) =>
        Console.err.println(s"lovobench: $err")
        sys.exit(2)
    }
    val spark = session()
    val run = new Run(args, spark)
    run.say(f"set-up: SparkSession ready ${Jvm.sinceStartS}%.3f s after JVM start")
    val ok = try { Workloads(args.workload)(run); true }
    catch {
      case e: Throwable =>
        Console.err.println(s"lovobench: ${args.workload} aborted")
        e.printStackTrace()
        false
    } finally spark.stop() // drains the listener bus before the span totals are read
    if (!ok) sys.exit(1)

    val metrics = run.tracer match {
      case Some(tr) =>
        val m = perLayer(run, tr)
        m.foreach { case (n, v, u) => run.say(f"layer  $n%-32s $v%.6f $u") }
        m
      case None => run.endToEnd.toSeq.map { case (n, (v, u)) => (n, v, u) }
    }
    run.say(s"workload ${args.workload} seed ${args.seed} seconds ${args.seconds} trace ${if (args.trace) 1 else 0}")
    run.report.foreach(println)
    run.gateReport.foreach(println)
    val body = metrics.map { case (n, v, u) => s"${str(n)}: {\"value\": ${num(v)}, \"unit\": ${str(u)}}" }
    println(s"""{"correct": ${run.correct}, "attempted": ${run.attempted}, "failed": ${run.failed}, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
    sys.exit(0)
  }
}
