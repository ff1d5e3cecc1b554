package repro.graph

import org.apache.spark.sql.Dataset
import repro.core.{JointSimilarity, VecOps}
import repro.core.Types._

/** Merging-free joint search on the fused index (paper §VII-B, Algorithm 2)
  * plus the multi-vector computation optimization (Eq. 8/9, Lemma 4).
  *
  * Queries are a DataFrame; the compact index and vector store are
  * broadcast and each partition runs the greedy routing kernel per query —
  * the "index-pruned scan" formulation of the search: instead of scanning
  * all n objects, each query touches only the vertices the graph routes it
  * through.
  */
object JointSearch {

  /** Per-query output. `results` is the approximate top-k (desc joint IP).
    *
    * @param dotProducts   modality-level dot products actually computed
    * @param prunedObjects objects discarded early by the Lemma-4 bound
    * @param hops          greedy iterations (vertices expanded)
    */
  final case class SearchResult(
      qid: Long,
      gt: Long,
      results: Seq[Long],
      dotProducts: Long,
      prunedObjects: Long,
      hops: Long,
  )

  /** Greedy routing kernel (Algorithm 2). Pure function; runs inside
    * mapPartitions for the Dataset API and on the driver for unit tests.
    *
    * R, the fixed-size result set, is an array pool of capacity
    * l' = min(l, n): parallel `ip`/`id`/`expanded` arrays kept sorted by
    * descending joint IP (`java.lang.Double.compare`), ties by ascending id.
    * A candidate enters by binary search and `System.arraycopy`, pushing
    * the worst slot out when R is full. H (the expanded vertices) is the
    * `expanded` flag of each slot, and a cursor marks the lowest slot that
    * may be unexpanded, so line 5 resumes from the cursor instead of
    * scanning R from the top. A per-call bitset over the n vertices marks
    * every vertex already scored, so no IP is computed twice (the paper's
    * H-check plus memoization — identical result set, fewer dot products).
    *
    * Returns min(k, n) distinct ids: with k > n every object is returned.
    * A query with no active modality (every slot empty or zero-weighted)
    * is rejected.
    *
    * @return (top-k ids, dot products, pruned count, hops, per-iteration
    *         sum of R's IPs — the monotone f(η) of Lemma 3)
    */
  def searchKernel(
      qVecs: Array[Array[Double]],
      qid: Long,
      w: Array[Double],
      index: FusedIndex,
      store: VectorStore,
      cfg: SearchConfig,
      seed: Long = 99L,
  ): (Array[Int], Long, Long, Long, Array[Double]) = {
    val n = index.n
    val l = math.min(cfg.l, n)
    val scan = new JointSimilarity.PartialScan(w, qVecs)
    require(scan.hasActive, s"query $qid has no active modality (every slot empty or zero-weighted)")
    require(w.length == store.m, s"weights ${w.length} vs modalities ${store.m}")
    var dots = 0L
    var prunedCnt = 0L

    // R, worst last; every slot below `cursor` is expanded.
    val ip = new Array[Double](l)
    val id = new Array[Int](l)
    val expanded = new Array[Boolean](l)
    var size = 0
    var cursor = 0
    val scored = new Array[Long]((n + 63) >>> 6)
    def isScored(v: Int): Boolean = (scored(v >>> 6) & (1L << v)) != 0L

    // Inserts (x, v) at its rank; when R is full the worst slot drops, so
    // the caller guarantees (x, v) ranks above it.
    def insert(x: Double, v: Int): Unit = {
      var lo = 0
      var hi = size
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        val c = java.lang.Double.compare(ip(mid), x)
        if (c > 0 || (c == 0 && id(mid) < v)) lo = mid + 1 else hi = mid
      }
      val moved = math.min(size, l - 1) - lo
      System.arraycopy(ip, lo, ip, lo + 1, moved)
      System.arraycopy(id, lo, id, lo + 1, moved)
      System.arraycopy(expanded, lo, expanded, lo + 1, moved)
      ip(lo) = x; id(lo) = v; expanded(lo) = false
      if (size < l) size += 1
      if (lo < cursor) cursor = lo
    }

    // Scores v (marking it scored) against `threshold`; adds its dots.
    def score(v: Int, threshold: Double): Double = {
      scored(v >>> 6) |= 1L << v
      val x = scan(store.vecs(v), threshold)
      dots += scan.scanned
      x
    }

    // f(η) of Lemma 3: summed from 0.0 in rank order, so the trace is
    // reproducible bit for bit.
    def poolSum(): Double = {
      var s = 0.0; var j = 0
      while (j < size) { s += ip(j); j += 1 }
      s
    }

    // Line 1–3: seed + (l−1) random vertices, scored exactly.
    def add(v: Int): Unit = if (!isScored(v)) insert(score(v, Double.NegativeInfinity), v)
    add(index.seedVertex)
    var c = 0L
    while (size < l) {
      add(math.floorMod(VecOps.mix64(seed ^ VecOps.mix64(qid * 131 + c)), n.toLong).toInt)
      c += 1
    }

    var hops = 0L
    val fEta = new scala.collection.mutable.ArrayBuilder.ofDouble
    fEta += poolSum()
    var done = false
    while (!done) {
      // Line 5: unvisited vertex in R nearest to q.
      while (cursor < size && expanded(cursor)) cursor += 1
      if (cursor == size) done = true
      else {
        val v = id(cursor)
        expanded(cursor) = true; hops += 1
        val nbrs = index.adjacency(v)
        var i = 0
        while (i < nbrs.length) {
          val u = nbrs(i)
          if (!isScored(u)) {
            val worst = ip(l - 1) // line 8: z = argmin IP in R
            val x = score(u, if (cfg.usePartialDistance) worst else Double.NegativeInfinity)
            if (cfg.usePartialDistance && scan.pruned) prunedCnt += 1
            else if (x > worst) insert(x, u)
          }
          i += 1
        }
        fEta += poolSum()
      }
    }
    (java.util.Arrays.copyOf(id, math.min(cfg.k, size)), dots, prunedCnt, hops, fEta.result())
  }

  /** Distributed search: queries as a Dataset, index + store broadcast. */
  def search(
      queries: Dataset[MMQuery],
      index: FusedIndex,
      store: VectorStore,
      w: Array[Double],
      cfg: SearchConfig = SearchConfig(),
  ): Dataset[SearchResult] = {
    val spark = queries.sparkSession
    import spark.implicits._
    val bIdx = spark.sparkContext.broadcast(index)
    val bStore = spark.sparkContext.broadcast(store)
    val bw = spark.sparkContext.broadcast(w)
    queries.mapPartitions { it =>
      val idx = bIdx.value; val st = bStore.value; val ww = bw.value
      it.map { q =>
        val qv = q.vecs.map(_.toArray).toArray
        val (ids, dots, pruned, hops, _) = searchKernel(qv, q.qid, ww, idx, st, cfg)
        SearchResult(q.qid, q.gt, ids.map(_.toLong).toSeq, dots, pruned, hops)
      }
    }
  }
}
