package repro.testkit

import scala.collection.mutable
import org.apache.spark.{SparkContext, TestInternals}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** The Spark work one call launched.
  *
  * @param tasksPerJob    tasks run by each job, in job-start order
  * @param stagesPerJob   stages each job lists at its start, in job-start
  *                       order: skipped stages count, so a job over a cache
  *                       whose lineage holds a shuffle lists the shuffle's
  *                       map stage too, although it does not run it
  * @param inputRecordsPerJob input records of each job, in job-start order:
  *                       for a job over a cached RDD, the cached blocks it
  *                       read from the cache (a recomputed block adds none)
  * @param resultBytesPerJob bytes each job's tasks sent back to the driver
  *                       (the summed task `resultSize`: the serialized
  *                       results), in job-start order
  * @param outsideSqlPerJob whether each job, in job-start order, ran outside
  *                       every SQL execution the call started
  * @param shuffleStages  stages that wrote or read shuffle data
  * @param shuffleMapStages stages that wrote shuffle output, one per
  *                       exchange run
  * @param sqlExecutions  SQL executions started
  * @param stages         the shape of each submitted stage, in submission order
  */
final case class SparkWork(tasksPerJob: Seq[Int], stagesPerJob: Seq[Int],
                           inputRecordsPerJob: Seq[Long], resultBytesPerJob: Seq[Long],
                           outsideSqlPerJob: Seq[Boolean], shuffleStages: Int,
                           shuffleMapStages: Int, sqlExecutions: Int,
                           stages: Seq[StageShape]) {
  def jobs: Int = tasksPerJob.size

  def jobsOutsideSql: Int = outsideSqlPerJob.count(identity)
}

/** One submitted stage: its task count and the partition count of each RDD
  * it computes, by RDD id. A stage whose RDDs all have `tasks` partitions
  * runs at the full width of what it reads; a coalesce inside the stage
  * shows as an RDD with more partitions than the stage has tasks.
  */
final case class StageShape(tasks: Int, rddPartitions: Map[Int, Int]) {
  def fullWidth: Boolean = rddPartitions.values.forall(_ == tasks)
}

object SparkWork {

  /** Runs `body` and counts the jobs, tasks, stages per job, input records,
    * result bytes, shuffle stages and SQL executions it launched. Counts
    * every job of the context meanwhile, so the caller must be the only one
    * running Spark work.
    */
  def during[T](sc: SparkContext)(body: => T): (T, SparkWork) = {
    TestInternals.drainListenerBus(sc) // earlier work's late events must not be counted
    val listener = new Counter
    sc.addSparkListener(listener)
    try {
      val result = body
      TestInternals.drainListenerBus(sc)
      (result, listener.work)
    } finally sc.removeSparkListener(listener)
  }

  private final class Counter extends SparkListener {
    private val jobOfStage = mutable.Map[Int, Int]()
    private val tasks = mutable.LinkedHashMap[Int, Int]()
    private val jobStages = mutable.Map[Int, Int]()
    private val records = mutable.Map[Int, Long]()
    private val resultBytes = mutable.Map[Int, Long]()
    private val shuffling = mutable.Set[Int]()
    private val mapStages = mutable.Set[Int]()
    private val executions = mutable.Set[Long]()
    private val executionOfJob = mutable.Map[Int, Option[Long]]()
    private val stages = mutable.ArrayBuffer[StageShape]()

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      tasks(e.jobId) = 0
      jobStages(e.jobId) = e.stageInfos.size
      records(e.jobId) = 0L
      resultBytes(e.jobId) = 0L
      e.stageIds.foreach(jobOfStage(_) = e.jobId)
      executionOfJob(e.jobId) = Option(e.properties)
        .flatMap(p => Option(p.getProperty(SQLExecution.EXECUTION_ID_KEY))).map(_.toLong)
    }

    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case s: SparkListenerSQLExecutionStart => synchronized { executions += s.executionId }
      case _                                 =>
    }

    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
      stages += StageShape(e.stageInfo.numTasks, e.stageInfo.rddInfos.map(r => r.id -> r.numPartitions).toMap)
      if (TestInternals.isShuffleMapStage(e.stageInfo)) {
        shuffling += e.stageInfo.stageId
        mapStages += e.stageInfo.stageId
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      jobOfStage.get(e.stageId).foreach { j =>
        tasks(j) += 1
        if (m != null) {
          records(j) += m.inputMetrics.recordsRead
          resultBytes(j) += m.resultSize
        }
      }
      if (m != null && (m.shuffleReadMetrics.recordsRead > 0 || m.shuffleWriteMetrics.recordsWritten > 0))
        shuffling += e.stageId
    }

    def work: SparkWork = synchronized {
      val jobs = tasks.keys.toSeq
      SparkWork(jobs.map(tasks), jobs.map(jobStages), jobs.map(records), jobs.map(resultBytes),
        jobs.map(j => !executionOfJob(j).exists(executions)),
        shuffling.size, mapStages.size, executions.size, stages.toSeq)
    }
  }
}
