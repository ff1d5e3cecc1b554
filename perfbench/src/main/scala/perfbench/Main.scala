package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.SizeEstimator
import repro.baseline.{BruteForceSearch, JointEmbeddingSearch, MultiStreamRetrieval}
import repro.core.Types.{MMObject, MMQuery, SearchConfig}
import repro.core.WeightLearning
import repro.graph.{FusedIndex, FusedIndexBuilder, JointSearch, VectorStore}
import repro.mmdata.MultiModalSynth
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark entry point: runs one workload and prints its metrics.
  *
  * Usage: `Main --workload <name> [--seed <n>] --seconds <s> --trace <0|1> --work-dir <dir>`
  *
  * The last line of standard output is one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
  * the per-layer metrics traced. Every line before it is for people.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val wl = Workload.all.find(w => opts.get("workload").contains(w.name)).getOrElse {
      System.err.println(s"unknown workload ${opts.getOrElse("workload", "(none)")}; " +
        s"known: ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.get("seed").map(_.toLong).getOrElse(wl.defaultSeed)
    val seconds = opts.getOrElse("seconds", "6").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val workDir = Paths.get(opts.getOrElse("work-dir", ".bench_build")).toAbsolutePath
    val result = new Run(wl, seed, seconds, trace, workDir).run()
    println(result)
  }
}

object Run {
  /** Gen + collect repetitions; setup_s reports their median. */
  val SetupReps = 3
  /** Closed-loop samples per run, at least: ten beyond the p99. */
  val MinSamples = 1000
  /** Queries in the untimed closed-loop warm-up pass. */
  val WarmupQueries = 200
  /** Queries in the untimed kernel pre-warm on a random graph. */
  val PrewarmQueries = 50
  /** Timed batch rounds per run, at least; batch throughputs are medians over rounds. */
  val MinBatchRounds = 3
  /** Brute-force calls per round: they are short, so they need more samples. */
  val BrutePerRound = 3
}

/** One run of one workload. */
final class Run(wl: Workload, seed: Long, seconds: Double, trace: Boolean, workDir: java.nio.file.Path) {
  private val runId = f"${wl.name}-s$seed-${System.currentTimeMillis()}%x"
  private val tracer = new Tracer(trace, runId)
  private val ds = wl.dataset(seed)
  private val cfg = SearchConfig(k = Workload.K, l = wl.l)
  private var attempted = 0L
  private var failed = 0L
  private val failures = mutable.ArrayBuffer.empty[String]
  private val e2e = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val layer = mutable.LinkedHashMap.empty[String, (Double, String)]

  private val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
  private def say(s: String): Unit =
    println(f"[perfbench +${(System.currentTimeMillis() - jvmStart) / 1000.0}%.1fs] $s")

  /** Counts one operation; it fails if it produced any error message. */
  private def op(errors: Iterable[String]): Unit = {
    attempted += 1
    if (errors.nonEmpty) {
      failed += 1
      if (failures.length < 20) failures ++= errors.take(20 - failures.length)
    }
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def run(): String = {
    say(s"run $runId: workload ${wl.name}, seed $seed, ${seconds}s window, trace=${if (trace) 1 else 0}")
    op(Checks.selfTest().map(f => s"checker self-test: $f"))

    // ---- set-up: session start, then generation + collect, repeated ----
    val nproc = Runtime.getRuntime.availableProcessors
    val (spark, sessionS) = tracer.time("session.start") {
      SparkSession.builder
        .master(s"local[$nproc]")
        .appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", workDir.resolve("spark-local").toString)
        .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
        .getOrCreate()
    }
    spark.sparkContext.setLogLevel("WARN")
    tracer.attach(spark.sparkContext)
    import spark.implicits._

    var objects: org.apache.spark.sql.Dataset[MMObject] = null
    var store: VectorStore = null
    var queries: Array[MMQuery] = null
    val genS = mutable.ArrayBuffer.empty[Double]
    val collectS = mutable.ArrayBuffer.empty[Double]
    for (_ <- 0 until Run.SetupReps) {
      if (objects != null) objects.unpersist(blocking = true)
      val (o, g1) = tracer.time("mmdata.objects") {
        val o = MultiModalSynth.objects(spark, ds).cache(); o.count(); o
      }
      val (st, c) = tracer.time("store.collect")(VectorStore.collect(o))
      val (qs, g2) = tracer.time("mmdata.queries") {
        MultiModalSynth.queries(spark, ds, wl.encoder, nQueries = Workload.EvalQueries).collect()
      }
      objects = o; store = st; queries = qs.sortBy(_.qid)
      genS += g1 + g2; collectS += c
    }
    val setupS = sessionS + median(genS.indices.map(i => genS(i) + collectS(i)))
    e2e("setup_s") = (setupS, "s")
    layer("mmdata.gen_s") = (median(genS.toSeq), "s")
    layer("store.collect_s") = (median(collectS.toSeq), "s")
    layer("store.bytes") = (SizeEstimator.estimate(store).toDouble, "bytes")
    val n = store.n
    val m = store.m
    say(f"set-up: session $sessionS%.3f s + median gen+collect of ${Run.SetupReps} reps -> setup_s $setupS%.3f s (n=$n, m=$m, ${queries.length} eval queries)")

    // Compile the search kernel from a single-threaded profile before the
    // multi-threaded learn and build phases run the shared library code it
    // inlines: untimed queries on a random graph over the real store.
    {
      val rnd = new scala.util.Random(seed)
      val g = math.min(wl.index.gamma, store.n - 1)
      val graph = FusedIndex(Array.tabulate(store.n)(v => Array.fill(g)(rnd.nextInt(store.n))), 0, Array.fill(store.m)(1.0))
      val warmQ = queries.take(Run.PrewarmQueries)
      warmQ.foreach(q => JointSearch.searchKernel(q.vecs.map(_.toArray).toArray, q.qid, graph.weights, graph, store, cfg))
    }

    // ---- weight learning ----
    val anchors = MultiModalSynth.queries(spark, ds, wl.encoder, seedTag = 1L, nQueries = wl.anchors)
    val wlCfg = WeightLearning.WLConfig()
    val (train, learnS) = tracer.time("learn")(WeightLearning.learn(anchors, objects, m, wlCfg))
    val w = train.weights
    op(Checks.weights(w))
    e2e("learn_s") = (learnS, "s")
    say(f"learn: $learnS%.3f s, ${wlCfg.epochs} epochs, weights ${w.map(x => f"$x%.4f").mkString("[", ", ", "]")}")

    // ---- index builds ----
    def build(weights: Array[Double]): (FusedIndex, Double) = {
      val (idx, s) = tracer.time("build")(FusedIndexBuilder.build(spark, store, weights, wl.index))
      op(Checks.index(idx))
      (idx, s)
    }
    val builds = build(w) +: (if (wl.baselines) (0 until m).map(i => build(MultiStreamRetrieval.oneHot(m, i))) else Nil)
    val fused = builds.head._1
    val oneHot = builds.tail.map(_._1)
    val buildS = builds.map(_._2).sum
    e2e("build_s") = (buildS, "s")
    say(f"build: ${builds.length} calls, $buildS%.3f s (${builds.map(b => f"${b._2}%.2f").mkString(" + ")})")

    val qv = queries.map(q => q.vecs.map(_.toArray).toArray)
    val qDs = spark.createDataset(queries.toSeq)
    val nq = queries.length
    val qIndex = queries.indices.map(i => queries(i).qid -> i).toMap

    // Every result for a qid, from the driver kernel or a batch, must equal
    // the first one: search is deterministic.
    val reference = mutable.HashMap.empty[Long, Seq[Long]]
    def sameAsBefore(what: String, qid: Long, res: Seq[Long]): Option[String] =
      reference.get(qid) match {
        case Some(ref) => Some(s"$what qid $qid: result differs from an earlier call").filter(_ => ref != res)
        case None => reference(qid) = res; None
      }

    // Closed loop: one client on the driver, each query sent when the
    // previous one has returned.
    val latencies = mutable.ArrayBuffer.empty[Double]
    var next = 0
    def kernel(): Unit = {
      val i = next
      next = (next + 1) % nq
      val ((ids, _, _, _, _), s) =
        tracer.time("search.kernel")(JointSearch.searchKernel(qv(i), queries(i).qid, w, fused, store, cfg))
      latencies += s * 1000
      val res = ids.map(_.toLong).toSeq
      op(Checks.ranked(res, Workload.K, qv(i), w, store).map(e => s"kernel qid ${queries(i).qid}: $e") ++
        sameAsBefore("kernel", queries(i).qid, res))
    }

    def mustBatch(): (Array[JointSearch.SearchResult], Double) =
      tracer.time("search.batch")(JointSearch.search(qDs, fused, store, w, cfg).collect())
    def checkMust(res: Array[JointSearch.SearchResult]): Unit = {
      op(Seq(s"MUST batch returned ${res.length} of $nq queries").filter(_ => res.length != nq))
      res.foreach { r =>
        op(Checks.ranked(r.results, Workload.K, qv(qIndex(r.qid)), w, store).map(e => s"MUST qid ${r.qid}: $e") ++
          sameAsBefore("MUST batch", r.qid, r.results))
      }
    }
    def brute(): (Array[BruteForceSearch.ExactResult], Double) =
      tracer.time("brute")(BruteForceSearch.topK(queries, objects, w, Workload.K))
    def checkBrute(res: Array[BruteForceSearch.ExactResult], first: Array[BruteForceSearch.ExactResult]): Unit = {
      op(Seq(s"brute force returned ${res.length} of $nq queries").filter(_ => res.length != nq))
      // One operation per query; a sample is checked against a driver scan.
      val sampleStep = math.max(1, nq / 50)
      res.indices.foreach { i =>
        op(if (res(i).qid != queries(i).qid) Seq(s"brute force: result $i is for qid ${res(i).qid}")
           else if (first != null && first(i).results != res(i).results) Seq(s"brute force qid ${res(i).qid}: differs between calls")
           else if (i % sampleStep != 0) Nil
           else Checks.exact(res(i), Workload.K, qv(i), w, store).map(e => s"brute force: $e"))
      }
    }
    // MR on the one-hot indexes, JE on the modality-0 index.
    val jeW = MultiStreamRetrieval.oneHot(m, 0)
    def mrBatch() = tracer.time("mr.batch")(MultiStreamRetrieval.search(qDs, oneHot, store, Workload.K, wl.l).collect())
    def jeBatch() = tracer.time("je.batch")(JointEmbeddingSearch.search(qDs, oneHot.head, store, m, cfg).collect())
    def checkMr(res: Array[MultiStreamRetrieval.MrResult]): Unit = {
      op(Seq(s"MR returned ${res.length} of $nq queries").filter(_ => res.length != nq))
      res.foreach(r => op(Checks.distinctIds(r.results, Workload.K, n).map(e => s"MR qid ${r.qid}: $e")))
    }
    def checkJe(res: Array[JointSearch.SearchResult]): Unit = {
      op(Seq(s"JE returned ${res.length} of $nq queries").filter(_ => res.length != nq))
      res.foreach { r =>
        val comp = Array(queries(qIndex(r.qid)).comp.toArray) ++ Array.fill(m - 1)(Array.empty[Double])
        op(Checks.ranked(r.results, Workload.K, comp, jeW, store).map(e => s"JE qid ${r.qid}: $e"))
      }
    }

    // ---- closed loop first, before any batch runs the kernel on Spark's
    // threads: an untimed warm-up pass, then the timed queries ----
    for (_ <- 0 until math.min(nq, Run.WarmupQueries)) kernel()
    latencies.clear()
    val t0 = System.nanoTime()
    while (latencies.length < Run.MinSamples || (System.nanoTime() - t0) / 1e9 < seconds / 2) kernel()
    val loopS = (System.nanoTime() - t0) / 1e9

    // ---- an untimed batch round; it also yields the exact ground truth and
    // the quality figures ----
    val (mustRes, _) = mustBatch(); checkMust(mustRes)
    val (exact, _) = brute(); checkBrute(exact, null)
    def recallGt(res: Iterable[(Long, Seq[Long])]): Double =
      res.count { case (qid, ids) => ids.take(Workload.K).contains(queries(qIndex(qid)).gt) }.toDouble / res.size
    val exactById = exact.map(r => r.qid -> r.results.toSet).toMap
    val recallExact = mustRes.map(r => r.results.take(Workload.K).count(exactById(r.qid).contains).toDouble / Workload.K).sum / nq
    e2e("must_recall_exact") = (recallExact, "ratio")
    e2e("must_recall_gt") = (recallGt(mustRes.map(r => r.qid -> r.results)), "ratio")
    // MR and JE run once; their times and quality are per-layer figures.
    val (mrS, jeS) = if (!wl.baselines) (0.0, 0.0) else {
      val (mr, mrS) = mrBatch(); checkMr(mr)
      val (je, jeS) = jeBatch(); checkJe(je)
      layer("mr.recall_gt") = (recallGt(mr.map(r => r.qid -> r.results)), "ratio")
      layer("mr.inter_size_mean") = (mr.map(_.interSize.toDouble).sum / nq, "count")
      layer("je.recall_gt") = (recallGt(je.map(r => r.qid -> r.results)), "ratio")
      layer("je.dots_per_query") = (je.map(_.dotProducts).sum.toDouble / nq, "count")
      (mrS, jeS)
    }

    val meanDots = mustRes.map(_.dotProducts).sum.toDouble / nq
    val meanHops = mustRes.map(_.hops).sum.toDouble / nq
    layer("search.dots_per_query") = (meanDots, "count")
    layer("search.hops_per_query") = (meanHops, "count")
    layer("search.pruned_per_query") = (mustRes.map(_.prunedObjects).sum.toDouble / nq, "count")
    layer("search.scan_fraction") = (meanDots / (n.toDouble * m), "ratio")
    val edges = fused.adjacency.map(_.length.toLong).sum
    layer("index.edges") = (edges.toDouble, "count")
    layer("index.avg_degree") = (edges.toDouble / n, "count")
    layer("index.max_degree") = (fused.maxDegree.toDouble, "count")
    val first200 = mustRes.filter(_.qid < 200)
    say(f"search counters: $meanDots%.1f dots/q (scan fraction base n*m = ${n.toLong * m}), " +
      f"$meanHops%.1f hops/q over $nq queries; " +
      f"qid < 200: ${first200.map(_.dotProducts).sum.toDouble / first200.length}%.1f dots/q, " +
      f"${first200.map(_.hops).sum.toDouble / first200.length}%.1f hops/q")

    // ---- timed batch rounds until the window (closed loop included) is full ----
    val t1 = System.nanoTime()
    def windowS: Double = loopS + (System.nanoTime() - t1) / 1e9
    val searchS, bruteS = mutable.ArrayBuffer.empty[Double]
    while (searchS.length < Run.MinBatchRounds || windowS < seconds) {
      val (res, s) = mustBatch(); checkMust(res); searchS += s
      for (_ <- 0 until Run.BrutePerRound) { val (ex, b) = brute(); checkBrute(ex, exact); bruteS += b }
    }

    val sorted = latencies.sorted
    def pct(p: Double): Double = sorted(math.min(sorted.length - 1, math.ceil(p / 100 * sorted.length).toInt - 1))
    layer("search.p50_ms") = (pct(50), "ms")
    layer("search.p99_ms") = (pct(99), "ms")
    e2e("search_qps") = (nq / median(searchS.toSeq), "1/s")
    e2e("brute_qps") = (nq / median(bruteS.toSeq), "1/s")
    // The highest percentile with at least ten samples beyond it.
    val top = Seq(99.99, 99.9, 99.0, 90.0).find(p => sorted.length * (1 - p / 100) >= 10 - 1e-9).getOrElse(50.0)
    say(f"closed loop (1 client): ${sorted.length} samples, p50 ${pct(50)}%.3f ms, p99 ${pct(99)}%.3f ms, " +
      f"highest resolvable p$top ${pct(top)}%.3f ms")
    say(f"batches over $nq queries: MUST ${searchS.length} x median ${median(searchS.toSeq)}%.3f s, " +
      f"brute ${bruteS.length} x median ${median(bruteS.toSeq)}%.3f s" +
      (if (wl.baselines) f"; MR once $mrS%.3f s, JE once $jeS%.3f s" else ""))
    say(f"window: $windowS%.2f s: closed loop $loopS%.2f s, ${searchS.length} batch rounds")

    // ---- per-layer metrics from the spans and listener counts ----
    if (trace) {
      tracer.drain()
      val learnSpark = tracer.sparkUnder("learn")
      layer("learn.spark_jobs") = (learnSpark.jobs.toDouble, "count")
      layer("learn.ms_per_epoch") = (learnS * 1000 / wlCfg.epochs, "ms")
      layer("learn.final_loss") = (train.lossHistory.last, "nats")
      layer("build.calls") = (builds.length.toDouble, "count")
      val b = tracer.sparkUnder("build")
      layer("build.spark_stages") = (b.stages.toDouble, "count")
      layer("build.spark_tasks") = (b.tasks.toDouble, "count")
      layer("build.shuffle_write_mb") = (b.shuffleWriteBytes / 1e6, "MB")
      layer("build.shuffle_read_mb") = (b.shuffleReadBytes / 1e6, "MB")
      layer("build.task_cpu_s") = (b.taskCpuNs / 1e9, "s")
      val nBatches = tracer.closed.count(_.name == "search.batch")
      val sb = tracer.sparkUnder("search.batch")
      layer("search.batch_wall_s") = (median(searchS.toSeq), "s")
      layer("search.batch_task_cpu_s") = (sb.taskCpuNs / 1e9 / nBatches, "s")
      layer("search.spark_jobs") = (sb.jobs.toDouble / nBatches, "count")
      val nBrute = tracer.closed.count(_.name == "brute")
      layer("brute.ms_per_query") = (median(bruteS.toSeq) * 1000 / nq, "ms")
      layer("brute.task_cpu_s") = (tracer.sparkUnder("brute").taskCpuNs / 1e9 / nBrute, "s")
      for (k <- Seq("mr.recall_gt", "mr.inter_size_mean", "je.recall_gt", "je.dots_per_query"))
        if (!layer.contains(k)) layer(k) = (0.0, if (k.endsWith("gt")) "ratio" else "count")
      layer("traced.search_qps") = e2e("search_qps")
      layer("traced.build_s") = e2e("build_s")

      // Component ① of the fused build alone, with the build's arguments;
      // traced runs only, after everything above so it moves no other figure.
      val (_, nnd) = tracer.time("build.nndescent") {
        FusedIndexBuilder.nnDescentGraph(spark, store, w, math.min(wl.index.gamma, n - 1), wl.index.epsilon)
      }
      layer("build.nndescent_s") = (nnd, "s")
    }
    val gcS = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1000.0
    val heapPeak = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / 1e6
    layer("jvm.gc_s") = (gcS, "s")
    layer("jvm.heap_peak_mb") = (heapPeak, "MB")

    objects.unpersist()
    spark.stop()
    if (trace) {
      val path = workDir.resolve("traces").resolve(s"$runId.jsonl")
      tracer.write(path)
      say(s"trace: ${tracer.closed.length} spans written to $path")
    }

    failures.foreach(f => say(s"FAILED: $f"))
    say(f"operations: $attempted attempted, $failed failed (failed_ops_frac ${failed.toDouble / attempted}%.6f)")
    val shown = if (trace) layer else e2e
    shown.foreach { case (k, (v, u)) => say(f"$k%-26s $v%14.6f $u") }
    val metrics = shown.map { case (k, (v, u)) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${metrics.mkString(", ")}}}"""
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"metric is $v") else v.toString
}
