package lovobench

import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

/** Everything one benchmark run records: operations attempted and failed,
  * correctness gates, metrics, and the human-readable report.
  */
final class Run(val args: Args, val spark: SparkSession) {
  val tracer: Option[Tracer] = if (args.trace) Some(new Tracer(spark.sparkContext)) else None

  var attempted = 0L
  var failed = 0L
  private val gates = mutable.LinkedHashMap[String, Option[String]]()

  /** End-to-end metrics, in output order: name -> (value, unit). */
  val endToEnd = mutable.LinkedHashMap[String, (Double, String)]()
  /** Per-layer values measured by the workload rather than at a span. */
  val layerExtras = mutable.LinkedHashMap[String, Double]()
  val report = mutable.ArrayBuffer[String]()

  /** Runs one operation; an exception counts it as failed. */
  def attempt[A](what: String)(op: => A): Option[A] = {
    attempted += 1
    try Some(op)
    catch {
      case NonFatal(e) =>
        failed += 1
        report += s"FAILED $what: $e"
        None
    }
  }

  /** A correctness check; the run is correct only if every check holds. */
  def gate(name: String, ok: Boolean, detail: => String): Unit = {
    if (!gates.contains(name)) gates(name) = None
    if (!ok && gates(name).isEmpty) gates(name) = Some(detail)
  }

  def correct: Boolean = failed == 0 && gates.values.forall(_.isEmpty)

  def gateReport: Seq[String] = gates.toSeq.map {
    case (name, None)         => s"gate ok    $name"
    case (name, Some(detail)) => s"gate FAIL  $name: $detail"
  }

  def metric(name: String, value: Double, unit: String, note: String): Unit = {
    endToEnd(name) = (value, unit)
    report += f"metric $name%-14s $value%.6f $unit%-5s $note"
  }

  def say(line: String): Unit = report += line
}

object Timed {
  def apply[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}
