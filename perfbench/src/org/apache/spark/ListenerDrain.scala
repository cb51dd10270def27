package org.apache.spark

/** Blocks until every listener event posted so far has been delivered, so
  * task metrics of a finished job are complete. The listener bus is private
  * to Spark, hence this file's package.
  */
object ListenerDrain {
  def await(sc: SparkContext, timeoutMs: Long): Unit = sc.listenerBus.waitUntilEmpty(timeoutMs)
}
