package perfbench

import repro.baseline.BruteForceSearch.ExactResult
import repro.graph.{FusedIndex, VectorStore}

/** Output checks. Each returns None when the output is correct, or a
  * message naming what is wrong. They recompute what they need from the
  * vector store with their own loops, so they do not share code with the
  * program they check.
  */
object Checks {

  /** Joint inner product Σᵢ wᵢ·⟨qᵢ, oᵢ⟩ over the query's non-empty slots. */
  def jointIp(w: Array[Double], q: Array[Array[Double]], o: Array[Array[Double]]): Double = {
    var s = 0.0
    var i = 0
    while (i < o.length) {
      if (i < q.length && q(i).length > 0 && w(i) != 0.0) {
        var d = 0.0
        var j = 0
        while (j < q(i).length) { d += q(i)(j) * o(i)(j); j += 1 }
        s += w(i) * d
      }
      i += 1
    }
    s
  }

  /** `k` distinct ids in [0, n). */
  def distinctIds(ids: Seq[Long], k: Int, n: Int): Option[String] =
    if (ids.length != math.min(k, n)) Some(s"${ids.length} results, expected ${math.min(k, n)}")
    else if (ids.exists(id => id < 0 || id >= n)) Some(s"id out of [0, $n): ${ids.mkString(",")}")
    else if (ids.distinct.length != ids.length) Some(s"duplicate ids: ${ids.mkString(",")}")
    else None

  /** `k` distinct ids in [0, n) in non-increasing joint IP to the query. */
  def ranked(ids: Seq[Long], k: Int, q: Array[Array[Double]], w: Array[Double],
             store: VectorStore): Option[String] =
    distinctIds(ids, k, store.n).orElse {
      val ips = ids.map(id => jointIp(w, q, store.vecs(id.toInt)))
      ips.sliding(2).collectFirst {
        case Seq(a, b) if b > a => s"joint IP rises from $a to $b in ${ids.mkString(",")}"
      }
    }

  /** A brute-force result agrees with a driver scan of every object: each
    * rank holds the scan's IP at that rank, and its id really has that IP. */
  def exact(r: ExactResult, k: Int, q: Array[Array[Double]], w: Array[Double],
            store: VectorStore): Option[String] = {
    val all = Array.tabulate(store.n)(v => jointIp(w, q, store.vecs(v)))
    val want = all.sorted(Ordering[Double].reverse).take(math.min(k, store.n))
    val tol = 1e-9
    if (r.results.length != want.length) Some(s"qid ${r.qid}: ${r.results.length} results, expected ${want.length}")
    else distinctIds(r.results, k, store.n).map(e => s"qid ${r.qid}: $e").orElse {
      r.results.indices.collectFirst {
        case j if math.abs(r.ips(j) - want(j)) > tol || math.abs(all(r.results(j).toInt) - want(j)) > tol =>
          s"qid ${r.qid} rank $j: id ${r.results(j)} ip ${r.ips(j)}, scan says ${want(j)}"
      }
    }
  }

  /** Every vertex is reachable from the seed, and no vertex links to itself. */
  def index(idx: FusedIndex): Option[String] = {
    val n = idx.n
    val bad = (0 until n).find(v => idx.adjacency(v).exists(u => u == v || u < 0 || u >= n))
    if (bad.nonEmpty) return Some(s"vertex ${bad.get} has a self-loop or an out-of-range edge")
    if (idx.seedVertex < 0 || idx.seedVertex >= n) return Some(s"seed ${idx.seedVertex} out of range")
    val seen = new Array[Boolean](n)
    val stack = new java.util.ArrayDeque[Int]()
    seen(idx.seedVertex) = true; stack.push(idx.seedVertex)
    var reached = 1
    while (!stack.isEmpty) {
      idx.adjacency(stack.pop()).foreach { u =>
        if (!seen(u)) { seen(u) = true; reached += 1; stack.push(u) }
      }
    }
    if (reached == n) None else Some(s"$reached of $n vertices reachable from seed ${idx.seedVertex}")
  }

  def weights(w: Array[Double]): Option[String] =
    if (w.forall(x => !x.isNaN && !x.isInfinite && x >= 0)) None
    else Some(s"learned weights not finite and >= 0: ${w.mkString(",")}")

  /** Negative self-test: the checks must flag a swapped result list and a
    * disconnected adjacency, and pass the correct ones. Returns the
    * failures of the self-test itself. */
  def selfTest(): Seq[String] = {
    val unit = (x: Double) => Array(x, math.sqrt(1 - x * x))
    val store = new VectorStore(Array.tabulate(6)(v => Array(unit(v / 6.0), unit(1 - v / 6.0))))
    val w = Array(0.7, 0.3)
    val q = store.vecs(5)
    val byIp = (0 until 6).sortBy(v => -jointIp(w, q, store.vecs(v))).map(_.toLong)
    val good = byIp.take(3)
    val swapped = Seq(good(1), good(0), good(2))
    val ring = FusedIndex(Array.tabulate(6)(v => Array((v + 1) % 6)), 0, w)
    val split = FusedIndex(Array(Array(1), Array(2), Array(0), Array(4), Array(5), Array(3)), 0, w)
    val loop = FusedIndex(Array.tabulate(6)(v => Array((v + 1) % 6, v)), 0, w)
    val exactGood = ExactResult(0, 0, good, good.map(id => jointIp(w, q, store.vecs(id.toInt))))
    val exactSwapped = exactGood.copy(results = swapped)
    Seq(
      "correct list flagged" -> ranked(good, 3, q, w, store).nonEmpty,
      "swapped list passed" -> ranked(swapped, 3, q, w, store).isEmpty,
      "duplicate list passed" -> ranked(Seq(good(0), good(0), good(1)), 3, q, w, store).isEmpty,
      "correct exact result flagged" -> exact(exactGood, 3, q, w, store).nonEmpty,
      "swapped exact result passed" -> exact(exactSwapped, 3, q, w, store).isEmpty,
      "connected index flagged" -> index(ring).nonEmpty,
      "disconnected index passed" -> index(split).isEmpty,
      "self-loop passed" -> index(loop).isEmpty,
      "negative weight passed" -> weights(Array(0.5, -0.1)).isEmpty,
      "NaN weight passed" -> weights(Array(0.5, Double.NaN)).isEmpty,
    ).collect { case (what, true) => what }
  }
}
