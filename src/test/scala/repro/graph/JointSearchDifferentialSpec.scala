package repro.graph

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.core.{JointSimilarity, VecOps}
import repro.core.Types._

/** Differential test of the array-pool search kernel against the original
  * TreeSet kernel ([[RefJointSearch]]): on random small stores and graphs,
  * all five outputs — ids, dot products, pruned count, hops and the f(η)
  * trace — must be identical, the doubles bit for bit.
  */
class JointSearchDifferentialSpec extends AnyFunSuite with PropSupport {
  import JointSearchDifferentialSpec.Case

  private val genCase: Gen[Case] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    n <- Gen.frequency(3 -> Gen.choose(2, 40), 2 -> Gen.choose(41, 300))
    m <- Gen.choose(1, 3)
    dim <- Gen.choose(1, 6)
    distinct <- Gen.frequency(2 -> Gen.const(n), 1 -> Gen.choose(1, n)) // < n: duplicate vectors
    coarse <- Gen.frequency(3 -> false, 1 -> true) // coordinates in {-1, 0, 1}: IP ties
    knn <- Gen.oneOf(true, false)
    l <- Gen.frequency(4 -> Gen.choose(1, n), 1 -> Gen.choose(n, n + 20))
    k <- Gen.frequency(3 -> Gen.choose(1, l), 1 -> Gen.const(l))
    partial <- Gen.oneOf(true, false)
  } yield Case(seed, n, m, dim, distinct, coarse, knn, l, k, partial)

  private def unitVec(rnd: scala.util.Random, dim: Int, coarse: Boolean): Array[Double] = {
    val v = Array.fill(dim)(if (coarse) (rnd.nextInt(3) - 1).toDouble else rnd.nextGaussian())
    if (v.forall(_ == 0.0)) v(0) = 1.0
    VecOps.normalize(v)
  }

  /** Store, index, weights and three queries with at least one active slot. */
  private def instantiate(c: Case): (VectorStore, FusedIndex, Array[Double], Seq[(Long, Array[Array[Double]])]) = {
    val rnd = new scala.util.Random(c.seed)
    val base = Array.fill(c.distinct)(Array.fill(c.m)(unitVec(rnd, c.dim, c.coarse)))
    val store = new VectorStore(Array.tabulate(c.n)(i => base(if (i < c.distinct) i else rnd.nextInt(c.distinct))))
    val w = Array.fill(c.m)(if (rnd.nextInt(4) == 0) 0.0 else rnd.nextDouble() * 2)
    if (w.forall(_ == 0.0)) w(rnd.nextInt(c.m)) = 1.0
    val adjacency = Array.tabulate(c.n) { v =>
      if (c.knn) { // the γ nearest by joint IP, ties to the lower id
        val gamma = 1 + rnd.nextInt(math.min(8, c.n - 1))
        val ips = Array.tabulate(c.n)(u => JointSimilarity.jointIP(w, store.vecs(v), store.vecs(u)))
        ips(v) = Double.NegativeInfinity
        Array.fill(gamma) {
          val u = ips.indices.maxBy(ips)
          ips(u) = Double.NegativeInfinity
          u
        }
      } else Array.fill(rnd.nextInt(9))(rnd.nextInt(c.n)) // dead ends, self-loops, repeats
    }
    val index = FusedIndex(adjacency, rnd.nextInt(c.n), w)
    val queries = Seq.fill(3) {
      val t = if (rnd.nextInt(5) == 0) 1 + rnd.nextInt(c.m) else c.m // t < m: trailing slots absent
      val q = Array.tabulate(t) { i =>
        if (rnd.nextInt(3) == 0) Array.empty[Double]
        else if (rnd.nextInt(4) == 0) store.vecs(rnd.nextInt(c.n))(i).clone() // exact match
        else unitVec(rnd, c.dim, c.coarse)
      }
      val active = (0 until t).filter(i => w(i) != 0.0)
      if (!active.exists(i => q(i).nonEmpty)) {
        val i = if (active.nonEmpty) active(rnd.nextInt(active.length)) else 0
        if (w(i) == 0.0) w(i) = 1.0
        q(i) = unitVec(rnd, c.dim, c.coarse)
      }
      (rnd.nextLong(), q)
    }
    (store, index, w, queries)
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("array-pool kernel matches the TreeSet reference on every output (2,400 random cases)") {
    forAllGen(genCase, trials = 2400) { c =>
      val (store, index, w, queries) = instantiate(c)
      val cfg = SearchConfig(k = c.k, l = c.l, usePartialDistance = c.partial)
      queries.foreach { case (qid, q) =>
        val (ids, dots, pruned, hops, fEta) = JointSearch.searchKernel(q, qid, w, index, store, cfg)
        val (rIds, rDots, rPruned, rHops, rFEta) = RefJointSearch.searchKernel(q, qid, w, index, store, cfg)
        assert(ids.toSeq == rIds.toSeq, s"ids, qid $qid")
        assert((dots, pruned, hops) == ((rDots, rPruned, rHops)), s"counters, qid $qid")
        assert(bits(fEta) == bits(rFEta), s"f(eta), qid $qid")
      }
    }
  }
}

object JointSearchDifferentialSpec {

  /** One random case; everything but the shape is drawn from `seed`. */
  final case class Case(seed: Long, n: Int, m: Int, dim: Int, distinct: Int, coarse: Boolean,
                        knn: Boolean, l: Int, k: Int, partial: Boolean)
}
