package repro.util

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.testkit.SparkWork

class ScanJobSpec extends SparkSpec {

  private lazy val sc = spark.sparkContext
  private lazy val dp = sc.defaultParallelism

  /** 40 numbers in `parts` partitions. */
  private def numbers(parts: Int): RDD[Int] = sc.parallelize(1 to 40, parts)

  private val shapes = Seq("more partitions than cores" -> (() => 3 * dp + 1),
    "fewer partitions than cores" -> (() => math.max(1, dp - 1)))

  for ((label, parts) <- shapes)
    test(s"collect returns what a coalesced mapPartitions collect returns, in order: $label") {
      val rdd = numbers(parts())
      // one value per partition shows which elements each task read, and in what order
      val perPartition = (it: Iterator[Int]) => it.toVector
      assert(ScanJob.collect(rdd)(it => Iterator(perPartition(it))).toSeq ==
        rdd.coalesce(dp).mapPartitions(it => Iterator(perPartition(it))).collect().toSeq)
      assert(ScanJob.collect(rdd)(_.map(_ * 2)).toSeq == (1 to 40).map(_ * 2))
    }

  test("collect over an RDD with no partitions returns nothing") {
    val rdd = sc.emptyRDD[Int]
    assert(rdd.getNumPartitions == 0)
    assert(ScanJob.collect(rdd)(it => Iterator(it.size)).isEmpty)
    assert(rdd.coalesce(dp).mapPartitions(it => Iterator(it.size)).collect().isEmpty)
  }

  test("collect runs 1 Spark job, no shuffle, at most defaultParallelism tasks and no SQL execution") {
    for ((label, parts) <- shapes) {
      val n = parts()
      val (out, work) = SparkWork.during(sc)(ScanJob.collect(numbers(n))(it => Iterator(it.sum)))
      assert(out.sum == (1 to 40).sum, label)
      assert(work.jobs == 1, s"$label $work")
      assert(work.shuffleStages == 0, s"$label $work")
      assert(work.tasksPerJob == Seq(math.min(n, dp)), s"$label $work")
      assert(work.sqlExecutions == 0 && work.jobsOutsideSql == 1, s"$label $work")
    }
  }

  test("on a cached RDD, collect reads every block once from the cache") {
    // one block per partition, as the posting and frame blocks are cached
    val nBlocks = 3 * dp + 1
    val blocks = sc.parallelize(0 until nBlocks, nBlocks).map(i => Array.fill(16)(i))
      .persist(StorageLevel.MEMORY_AND_DISK)
    try {
      blocks.count() // loads the cache
      val (sums, work) = SparkWork.during(sc)(ScanJob.collect(blocks)(_.map(_.sum)))
      assert(sums.toSeq == (0 until nBlocks).map(16 * _))
      assert(work.inputRecordsPerJob == Seq(nBlocks.toLong), work.toString)
      assert(work.tasksPerJob == Seq(math.min(nBlocks, dp)), work.toString)
    } finally blocks.unpersist(blocking = true)
  }

  test("over a cache behind a shuffle, a local checkpoint makes collect one stage") {
    // One block per partition behind a shuffle, as the posting blocks sit
    // behind the index's exchange. Persisted, the scan also lists the
    // shuffle's map stage (skipped); locally checkpointed, the lineage ends
    // at the cache.
    val nBlocks = 3 * dp + 1
    def blocks(): RDD[Array[Int]] = sc.parallelize(0 until 16 * nBlocks, 4).map(i => (i % nBlocks, i))
      .partitionBy(new HashPartitioner(nBlocks)).mapPartitions(it => Iterator(it.map(_._2).toArray.sorted))
    val expected = (0 until nBlocks).map(b => (b until 16 * nBlocks by nBlocks).sum)
    def scan(cache: RDD[Array[Int]], label: String, stages: Int): Seq[Int] = {
      cache.count() // loads the cache
      val (sums, work) = SparkWork.during(sc)(ScanJob.collect(cache)(_.map(_.sum)))
      val clue = s"$label $work"
      assert(work.stagesPerJob == Seq(stages), clue)
      assert(work.shuffleStages == 0, clue)
      assert(work.inputRecordsPerJob == Seq(nBlocks.toLong), clue)
      assert(work.tasksPerJob == Seq(math.min(nBlocks, dp)), clue)
      sums.toSeq
    }
    val persisted = blocks().persist(StorageLevel.MEMORY_AND_DISK)
    val checkpointed = blocks().localCheckpoint()
    try {
      // the coalesce may group cached partitions by location: no fixed order
      assert(scan(persisted, "persisted", 2).sorted == expected)
      assert(scan(checkpointed, "locally checkpointed", 1).sorted == expected)
    } finally { persisted.unpersist(blocking = true); checkpointed.unpersist(blocking = true) }
  }
}
