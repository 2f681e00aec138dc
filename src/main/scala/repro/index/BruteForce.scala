package repro.index

import repro.util.VecOps
import repro.vit.BBox

/** Exhaustive exact scan — the w/o-ANNS ablation (Table IV) and the
  * LOVO(BF) variant (Table V). One narrow pass over the cached posting
  * blocks ([[InvertedMultiIndex.scan]]) scores every stored vector with the
  * exact inner product, reading each block's ids, boxes and embeddings in
  * place, and keeps a bounded top-k per block; the driver merges the
  * partial lists. It is the recall oracle of the ANN variants, so it
  * shares no code with [[AnnSearch]].
  */
object BruteForce {

  def search(index: InvertedMultiIndex, q: Array[Float], k: Int): (Seq[Candidate], AnnStats) = {
    require(k > 0, "k must be positive")
    require(q.length == index.pq.dim, s"expected query dim ${index.pq.dim}, got ${q.length}")
    val qn = VecOps.normalize(q)
    val dim = qn.length
    val parts = index.scan { b =>
      val top = new java.util.PriorityQueue[Candidate](worstFirst)
      def hit(j: Int, score: Double) = Candidate(b.patchIds(j), b.frameIds(j), score, BBox.packed(b.boxes, j))
      for (j <- b.patchIds.indices) {
        val s = VecOps.dotAt(qn, b.embs, j * dim)
        if (top.size < k) top.add(hit(j, s))
        else if (better(s, b.patchIds(j), top.peek)) { top.poll(); top.add(hit(j, s)) }
      }
      top.toArray(new Array[Candidate](0))
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
  private def better(score: Double, patchId: Long, h: Candidate): Boolean = {
    val c = java.lang.Double.compare(score, h.score)
    c > 0 || (c == 0 && patchId < h.patchId)
  }

  /** Heap order with the worst-ranked hit at the head. */
  private val worstFirst: java.util.Comparator[Candidate] = (a, b) =>
    if (better(a.score, a.patchId, b)) 1 else if (better(b.score, b.patchId, a)) -1 else 0
}
