package repro.baseline

import repro.core.Types._
import repro.graph.{FusedIndex, RefJointSearch, VectorStore}

/** Reference MR merge for differential tests: the original
  * `MultiStreamRetrieval.mergeKernel`, which ranks the boxed `Set`
  * intersection with `indexOf` on every list (O(|inter|·m·l)), running on
  * the reference search kernel.
  */
object RefMultiStreamRetrieval {

  def mergeKernel(
      q: MMQuery,
      indexes: Array[FusedIndex],
      store: VectorStore,
      k: Int,
      l: Int,
  ): MultiStreamRetrieval.MrResult = {
    val m = indexes.length
    val qv = q.vecs.map(_.toArray).toArray
    val active = (0 until m).filter(i => i < qv.length && qv(i).length > 0)
    require(active.nonEmpty, s"query ${q.qid} has no active modality")

    val lists: Seq[Array[Int]] = active.map { i =>
      val w = MultiStreamRetrieval.oneHot(m, i)
      val (ids, _, _, _, _) =
        RefJointSearch.searchKernel(qv, q.qid, w, indexes(i), store, SearchConfig(k = l, l = l))
      ids
    }

    val inter = lists.map(_.toSet).reduce(_ intersect _)
    // rank-sum over the candidate lists; absent ⇒ never (inter only)
    val rankSum: Map[Int, Int] = inter.map { id =>
      id -> lists.map(_.indexOf(id)).sum
    }.toMap
    val ranked = inter.toSeq.sortBy(id => (rankSum(id), id))
    val fill = lists.head.filterNot(inter.contains)
    val top = (ranked ++ fill).take(k)
    MultiStreamRetrieval.MrResult(q.qid, q.gt, top.map(_.toLong), inter.size)
  }
}
