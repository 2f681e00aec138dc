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

/** The cells one query scans, as [[AnnSearch.plan]] picks them: the first
  * `selected` cells in best-first order cover the scan budget with
  * `covered` postings, and the search rescores the first `limits(s)`
  * postings of each cell `cells(s)` of the rescore prefix (cell ids
  * ascending).
  */
private[index] final case class ScanPlan(selected: Int, covered: Long, cells: Array[Long], limits: Array[Int]) {
  def rescored: Long = limits.foldLeft(0L)(_ + _)
}

/** Approximate nearest-neighbor search over the inverted multi-index —
  * the paper's Algorithm 1 as a driver-planned distributed lookup.
  *
  * 1. Partition the (unit-normalized) query into P subvectors; build the
  *    ADC lookup table q_p · centroid (lines 1–5).
  * 2. Score every populated cell by its summed LUT score, in one loop over
  *    the directory's flat code column and a flat P·M table, and select
  *    the best-first prefix (the multi-sequence order) that covers an
  *    nprobe-style fraction of the collection, by one primitive weighted
  *    quickselect on order-preserving `Long` keys rather than a sort
  *    ([[plan]]). The top-A product set of line 6 is not applied (see the
  *    inline note). A cell id is the full PQ code word, so a cell's score
  *    is the ADC score of each of its postings (lines 8–12).
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

  /** Algorithm 1's top-A, which the search does not read (the line-6
    * product set is not applied; `lovobench/Replay.scala` passes it), the
    * rescore-depth floor as a multiple of k, and the share of the
    * collection the selected cells cover.
    */
  val TopA = 4
  val RescoreFactor = 20
  val ScanFraction = 0.35

  def search(index: InvertedMultiIndex, q: Array[Float], k: Int,
             topA: Int = TopA, rescoreFactor: Int = RescoreFactor,
             scanFraction: Double = ScanFraction): (Seq[Candidate], AnnStats) = {
    require(k > 0, "k must be positive")
    require(rescoreFactor >= 1, "rescoreFactor must be at least 1")
    val pq = index.pq
    val qn = VecOps.normalize(q)
    // The budget follows the paper's w/o-ANNS fast-search deltas (0.06 s
    // vs 0.15 s on Cityscapes): an effective scan of ~1/8 of the stored
    // vectors.
    val minCover = math.max(rescoreFactor.toLong * k,
      math.ceil(index.total * scanFraction).toLong)
    val planned = plan(index.cellIds, index.cellCounts, index.cellCodes, pq.P,
      Array.concat(pq.lut(qn): _*), minCover, rescoreFactor.toLong * k)
    val hits = scoreSelected(index, planned.cells, planned.limits, qn, k)
    val (pids, exacts) = (hits.patchIds, hits.exact)

    val top = bestK(exacts, pids, k)
    val exact = bestFirst(top.map(exacts), top.map(pids))
      .map { i => val j = top(i); Candidate(pids(j), hits.frameIds(j), exacts(j), BBox.packed(hits.boxes, j)) }
      .toSeq

    val stats = AnnStats(
      lutDots = pq.P.toLong * pq.M,
      cellsScored = index.cellIds.length,
      cellsSelected = planned.selected,
      candidates = planned.covered,
      rescored = planned.rescored)
    (exact, stats)
  }

  /** Ranks the directory's cells for one query (lines 6–12) on its flat
    * columns: scores every cell, selects the best-first cells covering
    * `minCover` postings, and within them the best-first prefix covering
    * the rescore depth max(`minDepth`, covered / 4), its last cell cut to
    * the postings the depth still needs.
    *
    * @param ids    the directory's cell ids, ascending
    * @param counts the posting count of each cell
    * @param codes  the cells' PQ codes, cell i's code in subspace p at
    *               `i * P + p`
    * @param lut    the query's ADC lookup table, flat: q_p · centroid c at
    *               `p * M + c`
    */
  private[index] def plan(ids: Array[Long], counts: Array[Long], codes: Array[Int], P: Int,
                          lut: Array[Double], minCover: Long, minDepth: Long): ScanPlan = {
    val n = ids.length
    val M = lut.length / P
    // Summed LUT score of every cell, from 0.0 in subspace order as
    // ProductQuantizer.adcScore sums it, kept as its order key.
    val keys = new Array[Long](n)
    var i = 0
    while (i < n) {
      var s = 0.0
      var p = 0
      while (p < P) { s += lut(p * M + codes(i * P + p)); p += 1 }
      keys(i) = descKey(s)
      i += 1
    }

    // Multi-sequence scan order: cells strictly by descending summed LUT
    // score (Babenko-Lempitsky's best-first traversal), visited until the
    // nprobe-style budget is covered. The top-A product set of line 6 is
    // not applied — under encoder noise a relevant cell routinely has one
    // off-top-A code, and letting the (background-dominated) product set
    // preempt the budget destroys recall.
    val pos = Array.range(0, n)
    val selected = bestCover(keys, pos, n, ids, counts, minCover)
    var covered = 0L
    i = 0
    while (i < selected) { covered += counts(pos(i)); i += 1 }

    // The exact-rescore depth scales with the scan (ADC ordering is a weak
    // ranker on near-parallel embeddings, so a fixed multiple of k would
    // starve recall as the collection grows). Its best-first prefix of the
    // selected cells is a second cover over the first `selected` entries;
    // the prefix's last cell in best-first order, the greatest (key, id),
    // gives only what the depth still needs.
    val depth = math.max(minDepth, covered / 4)
    val nRescore = bestCover(keys, pos, selected, ids, counts, depth)
    var last = 0
    var sum = 0L
    i = 0
    while (i < nRescore) {
      sum += counts(pos(i))
      if (keys(i) > keys(last) || (keys(i) == keys(last) && ids(pos(i)) > ids(pos(last)))) last = i
      i += 1
    }
    // Listed by ascending directory position, so by ascending cell id.
    val rescore = java.util.Arrays.copyOf(pos, nRescore)
    java.util.Arrays.sort(rescore)
    val limits = rescore.map(counts(_).toInt)
    if (nRescore > 0) {
      val cut = pos(last)
      limits(java.util.Arrays.binarySearch(rescore, cut)) =
        math.min(counts(cut), depth - (sum - counts(cut))).toInt
    }
    ScanPlan(selected, covered, rescore.map(ids(_)), limits)
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
      val keep = bestK(scores, js.map(b.patchIds(_)), k)
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

  /** The order key of `score`: keys ascend as scores descend, exactly in
    * the order `java.lang.Double.compare` gives `-score` (-0.0 before 0.0,
    * NaN last). It is the sign-folded bits of `-score`, compared as a
    * signed `Long`.
    */
  private[index] def descKey(score: Double): Long = {
    val bits = java.lang.Double.doubleToLongBits(-score)
    bits ^ ((bits >> 63) & Long.MaxValue)
  }

  /** Weighted selection of a best-first prefix: reorders `keys` and `pos`
    * in lockstep over `0 until n` so that their first m entries, m
    * returned, are the shortest prefix in (key asc, `ids(pos)` asc) order
    * whose weights `weights(pos)` sum to at least `cover` (all n when they
    * sum to less), in no particular order. With [[descKey]] keys that is
    * (score desc, id asc), the order of [[bestFirst]]. A quickselect with
    * seeded random pivots, so expected O(n); the ids of the positions
    * must be distinct for the prefix to be unique. Entries past n stay.
    */
  private[index] def bestCover(keys: Array[Long], pos: Array[Int], n: Int, ids: Array[Long],
                               weights: Array[Long], cover: Long): Int = {
    def swap(i: Int, j: Int): Unit = {
      val key = keys(i); keys(i) = keys(j); keys(j) = key
      val at = pos(i); pos(i) = pos(j); pos(j) = at
    }
    val rng = new java.util.SplittableRandom(n.toLong)
    var lo = 0
    var hi = n
    var need = cover
    // Invariant: entries 0 until lo are in the prefix and weigh cover -
    // need; entries hi until n are not; the prefix ends inside [lo, hi).
    while (lo < hi && need > 0) {
      swap(lo + rng.nextInt(hi - lo), hi - 1)
      val pivotKey = keys(hi - 1)
      val pivotId = ids(pos(hi - 1))
      // entries lo until m come before the pivot and weigh w
      var m = lo
      var w = 0L
      var i = lo
      while (i < hi - 1) {
        val key = keys(i)
        if (key < pivotKey || (key == pivotKey && ids(pos(i)) < pivotId)) {
          swap(i, m); w += weights(pos(m)); m += 1
        }
        i += 1
      }
      swap(m, hi - 1)
      if (w >= need) hi = m
      else { need -= w + weights(pos(m)); lo = m + 1 }
    }
    lo
  }

  /** Positions of the best `k` of `scores` in (score desc, id asc) order,
    * in no particular order; all of them when there are at most k.
    */
  private def bestK(scores: Array[Double], ids: Array[Long], k: Int): Array[Int] = {
    val pos = Array.range(0, scores.length)
    val n = bestCover(scores.map(descKey), pos, pos.length, ids, Array.fill(pos.length)(1L), k.toLong)
    java.util.Arrays.copyOf(pos, n)
  }

  /** Positions `0 until scores.length` ordered by (score desc, id asc),
    * the order of [[before]]; a stable library sort, used on the final k
    * hits only.
    */
  private[index] def bestFirst(scores: Array[Double], ids: Array[Long]): Array[Int] =
    Array.range(0, scores.length).sortWith(before(scores, ids, _, _))
}
