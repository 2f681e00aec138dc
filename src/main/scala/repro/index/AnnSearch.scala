package repro.index

import repro.util.VecOps
import repro.vit.BBox

/** A retrieval candidate: a vector-database hit's patch and frame ids,
  * its exact score and its predicted box, read from the posting block with
  * it. A reranked answer carries patch id -1 and the decoder's box.
  */
final case class Candidate(patchId: Long, frameId: Long, score: Double, box: BBox)

/** Operation counts of one search — the cost model's inputs. */
final case class AnnStats(
    lutDots: Long,        // q_p · centroid dot products (P*M)
    cellsScored: Long,    // directory cells ranked on the driver
    cellsSelected: Long,  // cells whose postings were fetched
    candidates: Long,     // postings in the selected cells (the scan budget)
    rescored: Long)       // postings exactly rescored: the top by ADC

/** The exact top-k of scanned postings, each with its box (4 values at
  * `4 * j`) and its exact score.
  */
private final case class ScoredPostings(
    patchIds: Array[Long], frameIds: Array[Long], boxes: Array[Double], exact: Array[Double])

/** Approximate nearest-neighbor search over the inverted multi-index —
  * the paper's Algorithm 1 as a driver-planned distributed lookup.
  *
  * 1. Partition the (unit-normalized) query into P subvectors; build the
  *    ADC lookup table q_p · centroid (lines 1–5).
  * 2. Score the populated cells of the driver-side directory by their
  *    summed LUT score and select the best-first prefix (the
  *    multi-sequence order) that covers an nprobe-style fraction of the
  *    collection, by a linear-time selection rather than a sort. The
  *    top-A product set of line 6 is not applied (see the inline note).
  *    A cell id is the full PQ code word, so a cell's score is the ADC
  *    score of each of its postings (lines 8–12).
  * 3. Postings rank in cell order: ADC score descending, then cell id,
  *    then patch id within the cell. The ADC top max(rescoreFactor * k,
  *    scanned/4) is then the best-first prefix of the selected cells that
  *    covers that depth, of which the last cell gives only the postings
  *    the depth still needs, its lowest patch ids. One narrow Spark pass
  *    over the cached posting blocks ([[InvertedMultiIndex.scan]]) merges
  *    each block's ascending cell ids with the prefix's, scores those
  *    postings exactly (lines 13–15), reading the block's typed arrays in
  *    place, and returns the block's own top-k by exact score. Every cell
  *    lives in one block, so no shuffle; one task per core.
  * 4. On the driver, select the top-k of the blocks' hits (line 17) and
  *    sort only those k. Every hit is one stored vector with its own patch
  *    id, so line 16's patch-id vote over per-subspace components has
  *    nothing to decide.
  */
object AnnSearch {

  /** @param topA no longer affects the search (the line-6 product set is
    *             not applied); kept only because `lovobench/Replay.scala`
    *             passes it.
    */
  def search(index: InvertedMultiIndex, q: Array[Float], k: Int,
             topA: Int = 4, rescoreFactor: Int = 20,
             scanFraction: Double = 0.35): (Seq[Candidate], AnnStats) = {
    require(k > 0, "k must be positive")
    require(rescoreFactor >= 1, "rescoreFactor must be at least 1")
    val pq = index.pq
    val qn = VecOps.normalize(q)
    val table = pq.lut(qn)

    // Summed LUT score of every populated cell, on the primitive directory.
    val cellIds = index.cellIds
    val counts = index.cellCounts
    val cellScores = index.cellCodes.map(pq.adcScore(table, _))

    // Multi-sequence scan order: cells strictly by descending summed LUT
    // score (Babenko-Lempitsky's best-first traversal), visited until the
    // nprobe-style budget is covered. The top-A product set of line 6 is
    // not applied — under encoder noise a relevant cell routinely has one
    // off-top-A code, and letting the (background-dominated) product set
    // preempt the budget destroys recall. The budget itself follows the
    // paper's w/o-ANNS fast-search deltas (0.06 s vs 0.15 s on
    // Cityscapes): an effective scan of ~1/8 of the stored vectors.
    val minCover = math.max(rescoreFactor.toLong * k,
      math.ceil(index.total * scanFraction).toLong)
    val cellPos = Array.range(0, cellIds.length)
    val nSelected = bestCover(cellScores, cellIds, cellPos, counts(_), minCover)
    val covered = cellPos.iterator.take(nSelected).map(counts(_)).sum

    // The exact-rescore depth scales with the scan (ADC ordering is a weak
    // ranker on near-parallel embeddings, so a fixed multiple of k would
    // starve recall as the collection grows).
    val rescoreDepth = math.max(rescoreFactor.toLong * k, covered / 4)
    // The best-first prefix of the selected cells covering rescoreDepth,
    // listed by ascending directory position, so by ascending cell id; its
    // last cell in best-first order gives only what the depth still needs.
    val prefix = java.util.Arrays.copyOf(cellPos, nSelected)
    val rescoreCells = prefix.take(bestCover(cellScores, cellIds, prefix, counts(_), rescoreDepth)).sorted
    val limits = rescoreCells.map(counts(_))
    val last = rescoreCells.indices.reduceOption { (a, b) =>
      if (before(cellScores, cellIds, rescoreCells(a), rescoreCells(b))) b else a
    }
    for (l <- last) limits(l) = math.min(limits(l), rescoreDepth - (limits.sum - limits(l)))
    val hits = scoreSelected(index, rescoreCells.map(cellIds(_)), limits.map(_.toInt), qn, k)
    val (pids, exacts) = (hits.patchIds, hits.exact)

    val top = Array.range(0, pids.length)
    val nTop = bestCover(exacts, pids, top, _ => 1L, k.toLong)
    val topScores = Array.tabulate(nTop)(i => exacts(top(i)))
    val exact = bestFirst(topScores, Array.tabulate(nTop)(i => pids(top(i))))
      .map { i => val j = top(i); Candidate(pids(j), hits.frameIds(j), exacts(j), BBox.packed(hits.boxes, j)) }
      .toSeq

    val stats = AnnStats(
      lutDots = pq.P.toLong * pq.M,
      cellsScored = cellIds.length,
      cellsSelected = nSelected,
      candidates = covered,
      rescored = limits.sum)
    (exact, stats)
  }

  /** One pass over the cached posting blocks: a merge walk of each block's
    * ascending cells against the ascending `cells` ids scores the first
    * `limits(s)` postings of cell `cells(s)` exactly (line 14), reading the
    * block's arrays in place, and returns the block's top-k of them (score
    * desc, patch id asc) with their ids and boxes: at most k per block.
    */
  private def scoreSelected(index: InvertedMultiIndex, cells: Array[Long],
                            limits: Array[Int], qn: Array[Float], k: Int): ScoredPostings = {
    val dim = index.pq.dim
    val parts = index.scan { b =>
      val (scanned, exacts) = (Array.newBuilder[Int], Array.newBuilder[Double])
      var c = 0
      var s = 0
      while (c < b.cells.length && s < cells.length) {
        if (b.cells(c) < cells(s)) c += 1
        else if (b.cells(c) > cells(s)) s += 1
        else {
          for (j <- b.start(c) until b.start(c) + limits(s)) {
            scanned += j
            exacts += VecOps.dotAt(qn, b.embs, j * dim)
          }
          c += 1
          s += 1
        }
      }
      val (js, scores) = (scanned.result(), exacts.result())
      val top = Array.range(0, js.length)
      val n = bestCover(scores, js.map(b.patchIds(_)), top, _ => 1L, k.toLong)
      val keep = top.take(n)
      ScoredPostings(keep.map(i => b.patchIds(js(i))), keep.map(i => b.frameIds(js(i))),
        keep.flatMap(i => b.boxes.slice(4 * js(i), 4 * js(i) + 4)), keep.map(scores(_)))
    }
    val all = parts.toSeq
    ScoredPostings(Array.concat(all.map(_.patchIds): _*), Array.concat(all.map(_.frameIds): _*),
      Array.concat(all.map(_.boxes): _*), Array.concat(all.map(_.exact): _*))
  }

  /** Whether position `a` comes before `b` in (score desc, id asc) order,
    * scores compared as `-score` under `java.lang.Double.compare`.
    */
  private def before(scores: Array[Double], ids: Array[Long], a: Int, b: Int): Boolean = {
    val c = java.lang.Double.compare(-scores(a), -scores(b))
    c < 0 || (c == 0 && ids(a) < ids(b))
  }

  /** Weighted selection of a best-first prefix: reorders the positions in
    * `pos` so that its first n entries, n returned, are the shortest
    * prefix of `pos` in (score desc, id asc) order whose weights sum to at
    * least `cover` (all of `pos` when they sum to less), in no particular
    * order. A quickselect with seeded random pivots, so expected
    * O(pos.length); ids must be distinct among `pos` for the prefix to be
    * unique.
    */
  private[index] def bestCover(scores: Array[Double], ids: Array[Long], pos: Array[Int],
                               weight: Int => Long, cover: Long): Int = {
    def swap(i: Int, j: Int): Unit = { val t = pos(i); pos(i) = pos(j); pos(j) = t }
    val rng = new java.util.SplittableRandom(pos.length.toLong)
    var lo = 0
    var hi = pos.length
    var need = cover
    // Invariant: pos(0 until lo) is in the prefix and weighs cover - need;
    // pos(hi until length) is not; the prefix ends inside [lo, hi).
    while (lo < hi && need > 0) {
      swap(lo + rng.nextInt(hi - lo), hi - 1)
      val pivot = pos(hi - 1)
      // pos(lo until m) comes before the pivot and weighs w
      var m = lo
      var w = 0L
      var i = lo
      while (i < hi - 1) {
        if (before(scores, ids, pos(i), pivot)) { swap(i, m); w += weight(pos(m)); m += 1 }
        i += 1
      }
      swap(m, hi - 1)
      if (w >= need) hi = m
      else { need -= w + weight(pivot); lo = m + 1 }
    }
    lo
  }

  /** Positions `0 until scores.length` ordered by (score desc, id asc),
    * the order of [[before]]; a stable library sort, used on the final k
    * hits only.
    */
  private[index] def bestFirst(scores: Array[Double], ids: Array[Long]): Array[Int] =
    Array.range(0, scores.length).sortWith(before(scores, ids, _, _))
}
