package repro.core

/** Joint similarity in the unified (weighted-concatenated) vector space.
  *
  * Lemma 1 (paper §VI-B): for concatenated vectors â = [ω₀·φ₀(a⁰), …] and
  * b̂, IP(â, b̂) = Σᵢ ωᵢ²·IP(φᵢ(aⁱ), φᵢ(bⁱ)). We therefore parameterize all
  * weights as w = ω² (the paper's appendix tables report ω² as well) and
  * never materialize the concatenation.
  *
  * The partial-scan variant implements the multi-vector computation
  * optimization of §VII-B (Eq. 8/9, Lemma 4): scan modalities
  * incrementally and abandon an object as soon as its joint IP can no
  * longer exceed the current threshold. For normalized vectors IPᵢ ≤ 1, so
  * after scanning modalities 0..x-1 the joint IP is bounded above by
  * partial + Σ_{i≥x} wᵢ — a safe early-exit test equivalent to the paper's
  * partial-Euclidean-distance form.
  */
object JointSimilarity {

  /** Exact joint IP: Σᵢ wᵢ·IPᵢ, skipping empty (absent, t<m) query slots. */
  def jointIP(w: Array[Double], q: Array[Array[Double]], o: Array[Array[Double]]): Double = {
    require(w.length == o.length, s"weights ${w.length} vs modalities ${o.length}")
    var s = 0.0; var i = 0
    while (i < o.length) {
      if (i < q.length && q(i).length > 0 && w(i) != 0.0) s += w(i) * VecOps.dot(q(i), o(i))
      i += 1
    }
    s
  }

  /** Result of a partial-distance computation (Lemma 4). */
  final case class PartialResult(ip: Double, pruned: Boolean, modalitiesScanned: Int)

  /** Incremental joint IP with early exit against `threshold`.
    *
    * Returns `pruned = true` iff the scan stopped early because the upper
    * bound fell to/below `threshold` — in that case `ip` is the bound at
    * the stopping point and the true joint IP is ≤ it (safe to discard).
    * When `pruned = false`, `ip` is exact.
    */
  def partialJointIP(
      w: Array[Double],
      q: Array[Array[Double]],
      o: Array[Array[Double]],
      threshold: Double,
  ): PartialResult = {
    require(w.length == o.length)
    val scan = new PartialScan(w, q)
    val ip = scan(o, threshold)
    PartialResult(ip, scan.pruned, scan.scanned)
  }

  /** [[partialJointIP]] for one query against many objects, with no
    * allocation per object: the active-modality mask and the initial
    * suffix mass are computed once. Each call runs the same floating-point
    * operations in the same order, so results are bit-identical; `pruned`
    * and `scanned` describe the most recent call. Not thread-safe — one
    * instance per query.
    */
  final class PartialScan(w: Array[Double], q: Array[Array[Double]]) {
    private val active = Array.tabulate(w.length)(i => i < q.length && q(i).length > 0 && w(i) != 0.0)
    // Suffix mass Σ_{i>=x} w_i over *active* modalities bounds the unscanned part.
    private val total = {
      var s = 0.0; var i = 0
      while (i < active.length) { if (active(i)) s += math.abs(w(i)); i += 1 }
      s
    }
    var pruned = false
    var scanned = 0

    /** True iff some query slot is non-empty with a non-zero weight. */
    def hasActive: Boolean = active.contains(true)

    /** Joint IP of `o` (modalities beyond `w.length` are ignored), or the
      * Lemma-4 bound at the stopping point when the scan is pruned. */
    def apply(o: Array[Array[Double]], threshold: Double): Double = {
      var remaining = total
      var partial = 0.0
      scanned = 0
      pruned = false
      var i = 0
      while (i < active.length) {
        if (active(i)) {
          partial += w(i) * VecOps.dot(q(i), o(i))
          remaining -= math.abs(w(i))
          scanned += 1
          if (partial + remaining <= threshold) {
            pruned = true
            return partial + remaining
          }
        }
        i += 1
      }
      partial
    }
  }

  /** Similarity measurement error (Eq. 4): 1 − IP(φ₀(a⁰), φ₀(r⁰)). */
  def sme(gtTarget: Array[Double], resultTarget: Array[Double]): Double =
    1.0 - VecOps.dot(gtTarget, resultTarget)

  /** Concatenated vector [√w₀·v₀, …] — only used by tests to validate
    * Lemma 1 against the literal construction. */
  def concatenate(w: Array[Double], vecs: Array[Array[Double]]): Array[Double] = {
    require(w.length == vecs.length)
    vecs.iterator.zipWithIndex.flatMap { case (v, i) =>
      val s = math.sqrt(w(i)); v.iterator.map(_ * s)
    }.toArray
  }
}
