package repro.testkit

import org.apache.spark.{SparkContext, TestInternals}
import org.apache.spark.sql.{Dataset, classic}

/** One RDD that holds cached blocks, as the block manager reports it.
  *
  * @param cachedPartitions partitions with a cached block
  * @param partitions       partitions of the RDD
  * @param bytes            cached bytes, in memory and on disk
  */
final case class CachedRdd(id: Int, name: String, cachedPartitions: Int, partitions: Int, bytes: Long) {
  def loaded: Boolean = cachedPartitions == partitions
}

object CachedStorage {

  /** The RDDs of the context that hold cached blocks (the storage listing
    * of `sc.getRDDStorageInfo`). The listing follows the listener bus, so
    * it is drained first.
    */
  def list(sc: SparkContext): Seq[CachedRdd] = {
    TestInternals.drainListenerBus(sc)
    sc.getRDDStorageInfo.toSeq.map(i =>
      CachedRdd(i.id, i.name, i.numCachedPartitions, i.numPartitions, i.memSize + i.diskSize))
  }

  /** The id of the RDD that holds the Dataset's cache, if the session's
    * cache manager has an entry for the Dataset's plan.
    */
  def rddOf(ds: Dataset[_]): Option[Int] = {
    val d = ds.asInstanceOf[classic.Dataset[_]]
    d.sparkSession.sharedState.cacheManager.lookupCachedData(d)
      .map(_.cachedRepresentation.cacheBuilder.cachedColumnBuffers.id)
  }
}
