package repro.index

import repro.util.VecOps

/** Exhaustive exact scan — the w/o-ANNS ablation (Table IV) and the
  * LOVO(BF) variant (Table V). One narrow pass over the cached posting
  * blocks ([[CachedRows.scan]], planned once per index) scores every stored
  * vector with the exact inner product, reading each block's ids and
  * embeddings in place, and keeps a bounded top-k per task; the driver
  * merges the partial lists. It is the recall oracle of the ANN variants,
  * so it shares no code with [[AnnSearch]].
  */
object BruteForce {

  def search(index: InvertedMultiIndex, q: Array[Float], k: Int): (Seq[SearchHit], AnnStats) = {
    require(k > 0, "k must be positive")
    require(q.length == index.pq.dim, s"expected query dim ${index.pq.dim}, got ${q.length}")
    val qn = VecOps.normalize(q)
    val dim = qn.length
    val col = CachedRows.column(index.entries, _: String)
    val (patchCol, frameCol, embsCol) = (col("patchIds"), col("frameIds"), col("embs"))
    val parts = CachedRows.scan(index.entries, "bf_search") { rows =>
      val top = new java.util.PriorityQueue[SearchHit](worstFirst)
      for (r <- rows) {
        val (patchIds, frameIds, embs) = (r.getArray(patchCol), r.getArray(frameCol), r.getArray(embsCol))
        var j = 0
        while (j < patchIds.numElements()) {
          // summed in the order of VecOps.dotAt
          var s = 0.0
          var i = 0
          while (i < dim) { s += qn(i).toDouble * embs.getFloat(j * dim + i); i += 1 }
          val pid = patchIds.getLong(j)
          if (top.size < k) top.add(SearchHit(pid, frameIds.getLong(j), s))
          else if (better(s, pid, top.peek)) { top.poll(); top.add(SearchHit(pid, frameIds.getLong(j), s)) }
          j += 1
        }
      }
      Iterator.single(top.toArray(new Array[SearchHit](0)))
    }
    val hits = parts.flatten.sortWith((a, b) => better(a.score, a.patchId, b)).take(k).toSeq
    // one exact pass over everything; no second rescore stage
    val stats = AnnStats(
      lutDots = 0L,
      cellsScored = 0L,
      cellsSelected = index.nCells,
      candidates = index.total,
      rescored = 0L)
    (hits, stats)
  }

  /** Whether a hit with this score and patch id ranks before `h` in
    * (score desc, patch id asc) order.
    */
  private def better(score: Double, patchId: Long, h: SearchHit): Boolean = {
    val c = java.lang.Double.compare(score, h.score)
    c > 0 || (c == 0 && patchId < h.patchId)
  }

  /** Heap order with the worst-ranked hit at the head. */
  private val worstFirst: java.util.Comparator[SearchHit] = (a, b) =>
    if (better(a.score, a.patchId, b)) 1 else if (better(b.score, b.patchId, a)) -1 else 0
}
