package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed call into the program. `parent` is -1 for a top-level span. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)

/** Spark work attributed to one span: the jobs started while it was the
  * innermost open span, their completed stages and finished tasks. */
final class SparkCounts {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var taskCpuNs = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L

  def add(o: SparkCounts): SparkCounts = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; taskCpuNs += o.taskCpuNs
    shuffleWriteBytes += o.shuffleWriteBytes; shuffleReadBytes += o.shuffleReadBytes
    this
  }
}

/** Times every public call the benchmark makes, from outside.
  *
  * Untraced, `time` only reads the clock. Traced, it also records a span
  * (kept in memory, written out by `write`) and tags the Spark jobs the
  * call starts with the span id through a SparkContext local property, so
  * a listener can attribute job, stage and task metrics to the span that
  * was open when the job started.
  */
final class Tracer(val enabled: Boolean, val runId: String) {
  private val SpanKey = "perfbench.span"
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var sc: SparkContext = _
  private val counts = mutable.HashMap.empty[Int, SparkCounts]
  private val stageSpan = mutable.HashMap.empty[Int, Int]

  def attach(context: SparkContext): Unit = if (enabled) {
    sc = context
    sc.addSparkListener(Listener)
  }

  /** Runs `f`, returning its value and its wall time in seconds. */
  def time[A](name: String)(f: => A): (A, Double) = {
    if (!enabled) {
      val t0 = System.nanoTime()
      val r = f
      return (r, (System.nanoTime() - t0) / 1e9)
    }
    val id = spans.length
    val parent = open.headOption.getOrElse(-1)
    spans += null // reserve the id; filled when the span closes
    open = id :: open
    if (sc != null) sc.setLocalProperty(SpanKey, id.toString)
    val t0 = System.nanoTime()
    try {
      val r = f
      (r, (System.nanoTime() - t0) / 1e9)
    } finally {
      spans(id) = Span(id, parent, name, t0, System.nanoTime())
      open = open.tail
      if (sc != null) sc.setLocalProperty(SpanKey, open.headOption.map(_.toString).orNull)
    }
  }

  /** Waits until the listener has seen every event posted so far. */
  def drain(): Unit = if (sc != null) org.apache.spark.ListenerDrain.drain(sc)

  def closed: Seq[Span] = spans.filter(_ != null).toSeq

  /** Spark counts of every span named `name` and of the spans below it. */
  def sparkUnder(name: String): SparkCounts = synchronized {
    val byId = closed.map(s => s.id -> s).toMap
    def under(id: Int): Boolean =
      id >= 0 && byId.get(id).exists(s => s.name == name || under(s.parent))
    counts.foldLeft(new SparkCounts) { case (acc, (id, c)) => if (under(id)) acc.add(c) else acc }
  }

  /** Writes every span, with its Spark counts, as one JSON line each. */
  def write(path: Path): Unit = synchronized {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try closed.foreach { s =>
      val c = counts.getOrElse(s.id, new SparkCounts)
      out.println(
        s"""{"run":"$runId","id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"jobs":${c.jobs},"stages":${c.stages},""" +
        s""""tasks":${c.tasks},"task_cpu_ns":${c.taskCpuNs},""" +
        s""""shuffle_write_bytes":${c.shuffleWriteBytes},"shuffle_read_bytes":${c.shuffleReadBytes}}""")
    } finally out.close()
  }

  private def countsOf(span: Int): SparkCounts = counts.getOrElseUpdate(span, new SparkCounts)

  private object Listener extends SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = Tracer.this.synchronized {
      val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt).getOrElse(-1)
      countsOf(span).jobs += 1
      e.stageIds.foreach(s => stageSpan(s) = span)
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = Tracer.this.synchronized {
      countsOf(stageSpan.getOrElse(e.stageInfo.stageId, -1)).stages += 1
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Tracer.this.synchronized {
      val c = countsOf(stageSpan.getOrElse(e.stageId, -1))
      c.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        c.taskCpuNs += m.executorCpuTime
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      }
    }
  }
}
