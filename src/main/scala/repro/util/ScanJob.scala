package repro.util

import scala.reflect.ClassTag
import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD

/** The one per-query collect of the program. Every query-time scan of a
  * cache runs through [[collect]]: the posting-block scan
  * ([[repro.index.InvertedMultiIndex.scan]]), the frame-block scan
  * ([[repro.video.FrameBlock.scan]]) and the metadata store's row scan
  * ([[repro.index.CachedRows.scan]]). The build's collects do not: they load
  * the caches at full partition parallelism.
  */
private[repro] object ScanJob {

  /** Runs `f` over each partition of `rdd` coalesced to `defaultParallelism`
    * and returns what it emits: one narrow Spark job of at most
    * `defaultParallelism` tasks (coalescing never adds partitions), each
    * task reading its parent partitions once. The output comes partition by
    * partition: in partition order over an uncached RDD, in no guaranteed
    * order over a cached one, whose partitions the coalesce may group by
    * their cached location. The job is one stage when `rdd`'s lineage holds
    * no shuffle (a local checkpoint's ends at its cache); otherwise it also
    * lists, and skips, the shuffle's map stages, which the scheduler
    * rebuilds on every call.
    *
    * It calls `SparkContext.runJob` with a `(TaskContext, Iterator)`
    * function directly. `RDD.map(f).collect()` would also clean Spark's
    * own wrapper lambdas on every call (ASM reads of their class files on
    * the driver), which made up most of a small job's fixed cost; this form
    * cleans one closure, the caller's. Each task ships `f`, so `f` must
    * capture query-sized values only.
    */
  def collect[T, U: ClassTag](rdd: RDD[T])(f: Iterator[T] => Iterator[U]): Array[U] = {
    val coalesced = rdd.coalesce(rdd.sparkContext.defaultParallelism)
    rdd.sparkContext.runJob(coalesced, (_: TaskContext, it: Iterator[T]) => f(it).toArray,
      coalesced.partitions.indices).flatten
  }
}
