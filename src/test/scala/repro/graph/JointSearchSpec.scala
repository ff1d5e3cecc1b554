package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.baseline.BruteForceSearch
import repro.core.Types._
import repro.eval.Metrics
import repro.mmdata.MultiModalSynth

class JointSearchSpec extends AnyFunSuite with SparkSpec {

  private val ds = DatasetConfig("js", n = 400, nQueries = 50, m = 2, dim = 16,
    dLat = 8, nClusters = 20, tau = 0.35, seed = 51L)
  private val enc = EncoderConfig("enc", targetNoise = 0.7, auxNoises = Seq(0.5))
  private val w = Array(0.5, 0.5)

  private lazy val objects = MultiModalSynth.objects(spark, ds).cache()
  private lazy val store = VectorStore.collect(objects)
  private lazy val index = FusedIndexBuilder.build(spark, store, w, IndexConfig(gamma = 10, epsilon = 3))
  private lazy val queries = MultiModalSynth.queries(spark, ds, enc).cache()
  private lazy val exact = BruteForceSearch.topK(queries.collect(), objects, w, k = 10)

  test("search returns k results, unique valid ids, for every query") {
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40)).collect()
    assert(res.length == ds.nQueries)
    res.foreach { r =>
      assert(r.results.length == 10)
      assert(r.results.toSet.size == 10)
      r.results.foreach(id => assert(id >= 0 && id < ds.n))
    }
  }

  test("results are ordered by descending joint IP") {
    val qs = queries.collect()
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40)).collect()
    val byQid = qs.map(q => q.qid -> q).toMap
    res.foreach { r =>
      val qv = byQid(r.qid).vecs.map(_.toArray).toArray
      val ips = r.results.map(id => repro.core.JointSimilarity.jointIP(w, qv, store.vecs(id.toInt)))
      assert(ips == ips.sortBy(-_), s"unsorted result IPs for query ${r.qid}: $ips")
    }
  }

  test("graph search approaches exact search (Recall@10(10) high at moderate l)") {
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 80)).collect()
    val gtSets = exact.map(e => e.qid -> e.results.toSet).toMap
    val recall = Metrics.recallAgainstSets(res.map(r => (r.results, gtSets(r.qid))).toSeq, 10)
    assert(recall > 0.9, s"recall=$recall")
  }

  test("larger l does not hurt recall (Table XII shape)") {
    val gtSets = exact.map(e => e.qid -> e.results.toSet).toMap
    def recallAt(l: Int): Double = {
      val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = l)).collect()
      Metrics.recallAgainstSets(res.map(r => (r.results, gtSets(r.qid))).toSeq, 10)
    }
    val rSmall = recallAt(15)
    val rLarge = recallAt(120)
    assert(rLarge >= rSmall - 1e-9, s"l=15: $rSmall, l=120: $rLarge")
    assert(rLarge > 0.95, s"rLarge=$rLarge")
  }

  test("Lemma 4: partial-distance pruning returns bit-identical results") {
    val withOpt = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = true)).collect().sortBy(_.qid)
    val without = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = false)).collect().sortBy(_.qid)
    assert(withOpt.map(_.results).toSeq == without.map(_.results).toSeq)
  }

  test("Lemma 4: pruning saves modality dot products") {
    val withOpt = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = true)).collect()
    val without = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = false)).collect()
    assert(withOpt.map(_.dotProducts).sum < without.map(_.dotProducts).sum)
    assert(withOpt.map(_.prunedObjects).sum > 0)
  }

  test("Lemma 3: f(eta) — sum of R's IPs — is monotonically non-decreasing") {
    val qs = queries.collect().take(10)
    qs.foreach { q =>
      val qv = q.vecs.map(_.toArray).toArray
      val (_, _, _, _, fEta) =
        JointSearch.searchKernel(qv, q.qid, w, index, store, SearchConfig(k = 10, l = 40))
      fEta.sliding(2).foreach {
        case Array(a, b) => assert(b >= a - 1e-9, s"f(eta) decreased: $a -> $b")
        case _           => ()
      }
    }
  }

  test("search visits far fewer objects than a full scan (index-pruned scan)") {
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40)).collect()
    val avgDots = res.map(_.dotProducts).sum.toDouble / res.length
    val fullScanDots = ds.n * ds.m
    assert(avgDots < fullScanDots / 2.0, s"avgDots=$avgDots vs full=$fullScanDots")
  }

  test("missing aux modality (t < m) still searches on the target slot alone") {
    val masked = MultiModalSynth.queries(spark, ds, enc, mask = Seq(true, false))
    val res = JointSearch.search(masked, index, store, w, SearchConfig(k = 5, l = 30)).collect()
    assert(res.forall(_.results.length == 5))
  }

  test("search with l capped by n still terminates") {
    val res = JointSearch.search(queries.limit(3), index, store, w,
      SearchConfig(k = 10, l = 10000)).collect()
    assert(res.forall(_.results.length == 10))
  }

  test("search is deterministic") {
    val a = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40))
      .collect().sortBy(_.qid).map(_.results)
    val b = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40))
      .collect().sortBy(_.qid).map(_.results)
    assert(a.toSeq == b.toSeq)
  }

  /** Exact top-k by the kernel's tie rule: desc joint IP, then asc id. */
  private def exactRanking(st: VectorStore, ww: Array[Double], qv: Array[Array[Double]], k: Int): Seq[Long] =
    (0 until st.n).sortBy(id => (-repro.core.JointSimilarity.jointIP(ww, qv, st.vecs(id)), id))
      .take(k).map(_.toLong)

  private def unit(xs: Double*): Array[Double] = repro.core.VecOps.normalize(xs.toArray)

  test("n = 2: the kernel ranks both objects exactly") {
    val st = new VectorStore(Array(Array(unit(1, 0), unit(0, 1)), Array(unit(0, 1), unit(1, 1))))
    val idx = FusedIndexBuilder.build(spark, st, w, IndexConfig(gamma = 10, epsilon = 3))
    val qv = Array(unit(0.2, 1), unit(1, 0))
    Seq(SearchConfig(k = 1, l = 1), SearchConfig(k = 1, l = 2), SearchConfig(k = 2, l = 2)).foreach { cfg =>
      val (ids, _, _, _, _) = JointSearch.searchKernel(qv, 0L, w, idx, st, cfg)
      assert(ids.map(_.toLong).toSeq == exactRanking(st, w, qv, cfg.k), s"$cfg")
    }
  }

  test("k > n returns min(k, n) distinct ids, in exact order") {
    val q = queries.collect().head
    val qv = q.vecs.map(_.toArray).toArray
    val k = ds.n.toInt + 25
    val (ids, _, _, _, _) = JointSearch.searchKernel(qv, q.qid, w, index, store, SearchConfig(k = k, l = k))
    assert(ids.length == ds.n && ids.distinct.length == ds.n)
    assert(ids.map(_.toLong).toSeq == exactRanking(store, w, qv, k))
  }

  test("l > n on a full query batch scores every object and returns the exact top-k") {
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = ds.n.toInt + 50))
      .collect()
    assert(res.length == ds.nQueries)
    val byQid = queries.collect().map(q => q.qid -> q.vecs.map(_.toArray).toArray).toMap
    res.foreach { r =>
      assert(r.results == exactRanking(store, w, byQid(r.qid), 10), s"query ${r.qid}")
      assert(r.dotProducts == ds.n * ds.m, s"query ${r.qid}: ${r.dotProducts} dots")
    }
  }

  test("all-duplicate store: same results with and without Lemma 4, exact when l = n") {
    val twin = Array(unit(1, 2, 3), unit(3, 2, 1))
    val st = new VectorStore(Array.fill(60)(twin.map(_.clone())))
    val idx = FusedIndexBuilder.build(spark, st, w, IndexConfig(gamma = 8, epsilon = 2))
    val qv = Array(unit(1, 1, 1), unit(0, 1, 2))
    Seq(10, 25, 60).foreach { l =>
      val runs = Seq(true, false).map { partial =>
        JointSearch.searchKernel(qv, 7L, w, idx, st, SearchConfig(k = 10, l = l, usePartialDistance = partial))
      }
      val ids = runs.map(_._1.toSeq)
      assert(ids.head == ids(1), s"l=$l: Lemma 4 changed the result")
      assert(ids.head.distinct.length == 10, s"l=$l: ${ids.head}")
      if (l == st.n) assert(ids.head == (0 until 10))
    }
  }

  test("a query with no active modality is rejected") {
    val qv = store.vecs(0)
    val empty = Array(Array.empty[Double], Array.empty[Double])
    intercept[IllegalArgumentException](
      JointSearch.searchKernel(empty, 0L, w, index, store, SearchConfig(k = 5, l = 20)))
    // The only non-empty slot carries a zero weight.
    intercept[IllegalArgumentException](
      JointSearch.searchKernel(Array(Array.empty[Double], qv(1)), 0L, Array(0.5, 0.0), index, store,
        SearchConfig(k = 5, l = 20)))
    // Zero weights on every slot.
    intercept[IllegalArgumentException](
      JointSearch.searchKernel(qv, 0L, Array(0.0, 0.0), index, store, SearchConfig(k = 5, l = 20)))
  }
}
