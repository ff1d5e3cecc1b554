package repro.graph

import repro.core.JointSimilarity.PartialResult
import repro.core.VecOps
import repro.core.Types._

/** Reference implementation of Algorithm 2 for differential tests: the
  * original `JointSearch.searchKernel`, with R kept in a `TreeSet` and the
  * memberships in boxed hash sets. O(l) per hop to find the next vertex and
  * to sum f(η), so O(l²) per query — kept only as the oracle the array-pool
  * kernel must match output for output. The Lemma-4 scan is the original
  * allocating `JointSimilarity.partialJointIP`, copied here so the oracle
  * shares no arithmetic with the kernel under test.
  */
object RefJointSearch {

  private def partialJointIP(
      w: Array[Double],
      q: Array[Array[Double]],
      o: Array[Array[Double]],
      threshold: Double,
  ): PartialResult = {
    require(w.length == o.length)
    var remaining = 0.0
    var i = 0
    while (i < o.length) {
      if (i < q.length && q(i).length > 0 && w(i) != 0.0) remaining += math.abs(w(i))
      i += 1
    }
    var partial = 0.0
    var scanned = 0
    i = 0
    while (i < o.length) {
      if (i < q.length && q(i).length > 0 && w(i) != 0.0) {
        partial += w(i) * VecOps.dot(q(i), o(i))
        remaining -= math.abs(w(i))
        scanned += 1
        if (partial + remaining <= threshold)
          return PartialResult(partial + remaining, pruned = true, scanned)
      }
      i += 1
    }
    PartialResult(partial, pruned = false, scanned)
  }

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
    var dots = 0L
    var prunedCnt = 0L

    def exactIp(v: Int): Double = {
      val r = partialJointIP(w, qVecs, store.vecs(v), Double.NegativeInfinity)
      dots += r.modalitiesScanned
      r.ip
    }

    // R ordered worst-last; ties broken by id for determinism.
    implicit val ord: Ordering[(Double, Int)] =
      Ordering.Tuple2(Ordering[Double].reverse, Ordering[Int])
    val r = scala.collection.mutable.TreeSet.empty[(Double, Int)]
    val inR = new java.util.HashMap[Integer, java.lang.Double]()
    val scored = new java.util.HashSet[Integer]()
    val expanded = new java.util.HashSet[Integer]()

    def add(v: Int): Unit = {
      if (!inR.containsKey(v)) {
        val ip = exactIp(v)
        r.add((ip, v)); inR.put(v, ip); scored.add(v)
      }
    }
    // Line 1–3: seed + (l−1) random vertices, scored exactly.
    add(index.seedVertex)
    var c = 0L
    while (inR.size < l) {
      val cand = math.floorMod(VecOps.mix64(seed ^ VecOps.mix64(qid * 131 + c)), n.toLong).toInt
      add(cand)
      c += 1
    }

    var hops = 0L
    val fEta = scala.collection.mutable.ArrayBuffer[Double](r.iterator.map(_._1).sum)
    var done = false
    while (!done) {
      // Line 5: unvisited vertex in R nearest to q.
      val next = r.iterator.find(p => !expanded.contains(p._2))
      next match {
        case None => done = true
        case Some((_, v)) =>
          expanded.add(v); hops += 1
          val nbrs = index.adjacency(v)
          var i = 0
          while (i < nbrs.length) {
            val u = nbrs(i)
            if (!scored.contains(u) && !inR.containsKey(u)) {
              val worst = r.last // line 8: z = argmin IP in R
              if (cfg.usePartialDistance) {
                val pr = partialJointIP(w, qVecs, store.vecs(u), worst._1)
                dots += pr.modalitiesScanned
                scored.add(u)
                if (pr.pruned) prunedCnt += 1
                else if (pr.ip > worst._1) {
                  r.remove(worst); inR.remove(worst._2)
                  r.add((pr.ip, u)); inR.put(u, pr.ip)
                }
              } else {
                val ip = exactIp(u)
                scored.add(u)
                if (ip > worst._1) {
                  r.remove(worst); inR.remove(worst._2)
                  r.add((ip, u)); inR.put(u, ip)
                }
              }
            }
            i += 1
          }
          fEta += r.iterator.map(_._1).sum
      }
    }
    (r.iterator.take(cfg.k).map(_._2).toArray, dots, prunedCnt, hops, fEta.toArray)
  }
}
