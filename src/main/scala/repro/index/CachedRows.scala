package repro.index

import scala.reflect.ClassTag
import org.apache.spark.sql.{Dataset, classic}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.{QueryExecution, SQLExecution}
import repro.util.ScanJob

/** Per-query scans of a cached Dataset through its once-planned physical
  * plan. Only [[MetadataStore]] uses them, and only the benchmark's replay
  * and the tests reach the store. (The posting blocks and the frame blocks
  * are cached as RDDs of objects, which a scan reads directly; see
  * [[InvertedMultiIndex.scan]] and [[repro.video.FrameBlock.scan]].)
  *
  * A Dataset operator (`filter`, `map`, `select`) builds a new plan that
  * Catalyst analyzes, optimizes and code-generates on every call. The
  * Dataset's own `queryExecution.toRdd` is planned once and memoized, so a
  * scan through it reads the in-memory cache and plans nothing. Its rows
  * are Spark's internal rows: address their columns by the ordinal that
  * [[column]] finds by name, never by case-class field position, and read
  * a row before advancing, since the scan may reuse its buffer.
  */
object CachedRows {

  private def plan(ds: Dataset[_]): QueryExecution =
    ds.asInstanceOf[classic.Dataset[_]].queryExecution

  /** Ordinal of column `name` in the Dataset's analyzed output. */
  def column(ds: Dataset[_], name: String): Int = {
    val i = plan(ds).analyzed.output.indexWhere(_.name == name)
    require(i >= 0, s"no column $name among ${ds.columns.mkString(", ")}")
    i
  }

  /** Loads every partition of the Dataset's cache that is not loaded yet,
    * in one narrow job over the cache's own partitions (the job Spark's
    * adaptive planner runs for a cache it meets unloaded), without
    * scanning rows; run as a SQL execution named `name`. Runs nothing when
    * the cache is loaded already or the Dataset is not cached.
    */
  def load(ds: Dataset[_], name: String): Unit = {
    val qe = plan(ds)
    val cached = qe.sparkSession.sharedState.cacheManager.lookupCachedData(ds.asInstanceOf[classic.Dataset[_]])
    for (c <- cached; builder = c.cachedRepresentation.cacheBuilder if !builder.isCachedColumnBuffersLoaded)
      SQLExecution.withNewExecutionId(qe, Some(name)) {
        builder.cachedColumnBuffers.foreachPartition(_ => ())
      }
  }

  /** Runs `f` over each partition of the Dataset's physical rows and
    * collects what it emits: one narrow Spark job of at most
    * `defaultParallelism` tasks ([[ScanJob.collect]]), run as a SQL
    * execution named `name`, so the job still reports its cached-scan row
    * metric.
    */
  def scan[U: ClassTag](ds: Dataset[_], name: String)(f: Iterator[InternalRow] => Iterator[U]): Array[U] = {
    val qe = plan(ds)
    SQLExecution.withNewExecutionId(qe, Some(name)) {
      ScanJob.collect(qe.toRdd)(f)
    }
  }
}
