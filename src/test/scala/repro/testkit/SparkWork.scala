package repro.testkit

import scala.collection.mutable
import org.apache.spark.{SparkContext, TestInternals}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** The Spark work one call launched.
  *
  * @param tasksPerJob    tasks run by each job, in job-start order
  * @param shuffleStages  stages that wrote or read shuffle data
  * @param shuffleMapStages stages that wrote shuffle output, one per
  *                       exchange run
  * @param sqlExecutions  SQL executions started
  * @param jobsOutsideSql jobs that ran outside every SQL execution the
  *                       call started; their scans report no SQL row metrics
  */
final case class SparkWork(tasksPerJob: Seq[Int], shuffleStages: Int, shuffleMapStages: Int,
                           sqlExecutions: Int, jobsOutsideSql: Int) {
  def jobs: Int = tasksPerJob.size
}

object SparkWork {

  /** Runs `body` and counts the jobs, tasks, shuffle stages and SQL
    * executions it launched. Counts every job of the context meanwhile,
    * so the caller must be the only one running Spark work.
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
    private val shuffling = mutable.Set[Int]()
    private val mapStages = mutable.Set[Int]()
    private val executions = mutable.Set[Long]()
    private val executionOfJob = mutable.Map[Int, Option[Long]]()

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      tasks(e.jobId) = 0
      e.stageIds.foreach(jobOfStage(_) = e.jobId)
      executionOfJob(e.jobId) = Option(e.properties)
        .flatMap(p => Option(p.getProperty(SQLExecution.EXECUTION_ID_KEY))).map(_.toLong)
    }

    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case s: SparkListenerSQLExecutionStart => synchronized { executions += s.executionId }
      case _                                 =>
    }

    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
      if (TestInternals.isShuffleMapStage(e.stageInfo)) {
        shuffling += e.stageInfo.stageId
        mapStages += e.stageInfo.stageId
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      jobOfStage.get(e.stageId).foreach(j => tasks(j) += 1)
      val m = e.taskMetrics
      if (m != null && (m.shuffleReadMetrics.recordsRead > 0 || m.shuffleWriteMetrics.recordsWritten > 0))
        shuffling += e.stageId
    }

    def work: SparkWork = synchronized {
      SparkWork(tasks.values.toSeq, shuffling.size, mapStages.size, executions.size,
        executionOfJob.values.count(!_.exists(executions)))
    }
  }
}
