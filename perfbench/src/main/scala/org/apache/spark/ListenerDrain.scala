package org.apache.spark

/** The listener bus is private to Spark; this is the one call the
  * benchmark needs from it, so that counters are complete before they are
  * read. */
object ListenerDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
