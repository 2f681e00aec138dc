package lovobench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate, SparkListenerSQLExecutionStart}

/** Spark work attributed to one span name. */
final class SparkWork {
  var jobs = 0L
  var tasks = 0L
  var runMs = 0L
  var records = 0L
}

/** Attributes Spark jobs, tasks, executor run time and rows read to the
  * span in flight.
  *
  * Rows read are the rows that a task's scans produce plus the shuffle
  * records it fetches. Spark's input metrics count a cached columnar batch
  * as one record, so the scans' SQL row metrics are used where a query plan
  * names them; a task with no such scan (an RDD job over a cached Dataset)
  * falls back to the input records.
  *
  * The span name travels with each job as a local property, so events that
  * reach the asynchronous listener bus late are still charged to the right
  * span. The totals are complete only once the bus has drained, which
  * `SparkContext.stop` guarantees; read them after stopping.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val scanRowAccumulators = ConcurrentHashMap.newKeySet[Long]()
  private val work = new ConcurrentHashMap[String, SparkWork]()

  private def of(span: String): SparkWork = work.computeIfAbsent(span, _ => new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(SpanListener.Key))).foreach { span =>
      of(span).jobs += 1
      e.stageIds.foreach(stageSpan.put(_, span))
    }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart          => addScans(s.sparkPlanInfo)
    case a: SparkListenerSQLAdaptiveExecutionUpdate => addScans(a.sparkPlanInfo)
    case _                                          =>
  }

  /** Registers the output-row metrics of a plan's scans: cached-table scans
    * (whose plan child is the cached plan, not read again) and leaves.
    */
  private def addScans(p: SparkPlanInfo): Unit =
    if (p.nodeName == "InMemoryTableScan" || p.children.isEmpty)
      p.metrics.filter(_.name == "number of output rows").foreach(m => scanRowAccumulators.add(m.accumulatorId))
    else p.children.foreach(addScans)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val span = stageSpan.get(e.stageId)
    if (span != null && e.taskMetrics != null) {
      val w = of(span)
      val m = e.taskMetrics
      val scanned = e.taskInfo.accumulables
        .filter(a => scanRowAccumulators.contains(a.id))
        .flatMap(_.update).collect { case n: java.lang.Long => n.longValue; case n: Long => n }.sum
      w.tasks += 1
      w.runMs += m.executorRunTime
      w.records += (if (scanned > 0) scanned else m.inputMetrics.recordsRead) +
        m.shuffleReadMetrics.recordsRead
    }
  }

  def totals: Map[String, SparkWork] = work.asScala.toMap
}

object SpanListener {
  val Key = "lovobench.span"
}

/** Records named spans around calls into the program's layers, plus
  * per-call counts. Spans do not nest: one client issues one layer call at
  * a time. Values are kept in memory and summarised at the end of the run.
  */
final class Tracer(sc: SparkContext) {
  val listener = new SpanListener
  sc.addSparkListener(listener)

  private val wallNs = mutable.LinkedHashMap[String, (Int, Long)]()
  private val counts = mutable.LinkedHashMap[String, (Int, Double)]()

  def span[A](name: String)(body: => A): A = {
    sc.setLocalProperty(SpanListener.Key, name)
    val t0 = System.nanoTime()
    try body
    finally {
      val dt = System.nanoTime() - t0
      sc.setLocalProperty(SpanListener.Key, null)
      val (n, s) = wallNs.getOrElse(name, (0, 0L))
      wallNs(name) = (n + 1, s + dt)
    }
  }

  /** Adds one observation of a count; the summary reports the mean. */
  def count(name: String, v: Double): Unit = {
    val (n, s) = counts.getOrElse(name, (0, 0.0))
    counts(name) = (n + 1, s + v)
  }

  def calls(name: String): Int = wallNs.get(name).map(_._1).getOrElse(0)

  /** Mean wall seconds per call of a span (0 when it never ran). */
  def wallS(name: String): Double =
    wallNs.get(name).map { case (n, s) => s / 1e9 / n }.getOrElse(0.0)

  def countMean(name: String): Double =
    counts.get(name).map { case (n, s) => s / n }.getOrElse(0.0)

  /** Per-call Spark work of a span. Call after the SparkContext stopped. */
  def sparkPerCall(name: String): (Double, Double, Double, Double) = {
    val n = calls(name)
    listener.totals.get(name) match {
      case Some(w) if n > 0 =>
        (w.jobs.toDouble / n, w.tasks.toDouble / n, w.runMs / 1e3 / n, w.records.toDouble / n)
      case _ => (0.0, 0.0, 0.0, 0.0)
    }
  }
}

object Jvm {
  /** Total garbage-collection time of this JVM so far, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Wall seconds since this JVM started. */
  def sinceStartS: Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
}
