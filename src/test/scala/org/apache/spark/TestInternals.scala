package org.apache.spark

import org.apache.spark.scheduler.StageInfo

/** The two Spark internals that counting Spark work in tests needs. Spark
  * keeps them private to its own packages, so tests reach them here.
  */
object TestInternals {

  /** Waits until every event posted to the listener bus so far has reached
    * its listeners.
    */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Whether the stage writes shuffle output for a later stage. */
  def isShuffleMapStage(info: StageInfo): Boolean = info.shuffleDepId.isDefined
}
