package repro.index

import repro.util.VecOps

/** A raw vector-database hit (before the metadata lookup). */
final case class SearchHit(patchId: Long, frameId: Long, score: Double)

/** Operation counts of one search — the cost model's inputs. */
final case class AnnStats(
    lutDots: Long,        // q_p · centroid dot products (P*M)
    cellsScored: Long,    // directory cells ranked on the driver
    cellsSelected: Long,  // cells whose postings were fetched
    candidates: Long,     // vectors ADC-scored (postings scanned)
    rescored: Long)       // vectors exactly rescored

/** One posting of the selected cells with its ADC and exact scores. */
private[index] final case class ScoredPosting(patchId: Long, frameId: Long, adc: Double, exact: Double)

/** Approximate nearest-neighbor search over the inverted multi-index —
  * the paper's Algorithm 1 as a driver-planned distributed lookup.
  *
  * 1. Partition the (unit-normalized) query into P subvectors; build the
  *    ADC lookup table q_p · centroid (lines 1–5).
  * 2. Rank the populated cells of the driver-side directory by their
  *    summed LUT score and visit them best-first (the multi-sequence
  *    order) until an nprobe-style fraction of the collection is covered.
  *    The top-A product set of line 6 is not applied (see the inline note).
  * 3. One narrow Spark pass over the cached postings ([[CachedRows.scan]],
  *    planned once per index) reads each row's cell id, keeps the entries
  *    of the selected cells and scores each with the LUT sum (lines 8–12)
  *    and the exact inner product; only those entries' codes and
  *    embeddings are decoded. No shuffle, one task per core.
  * 4. On the driver, keep the best max(rescoreFactor * k, scanned/4)
  *    candidates by ADC score, then return the top-k of those by exact
  *    score (lines 13–17; ties broken by patch id for determinism). Every
  *    hit is one stored vector with its own patch id, so line 16's
  *    patch-id vote over per-subspace components has nothing to decide.
  */
object AnnSearch {

  /** @param topA no longer affects the search (the line-6 product set is
    *             not applied); kept only because `lovobench/Replay.scala`
    *             passes it.
    */
  def search(index: InvertedMultiIndex, q: Array[Float], k: Int,
             topA: Int = 4, rescoreFactor: Int = 20,
             scanFraction: Double = 0.35): (Seq[SearchHit], AnnStats) = {
    require(k > 0, "k must be positive")
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
    val ordered = bestFirst(cellScores, cellIds)
    val minCover = math.max(rescoreFactor.toLong * k,
      math.ceil(index.total * scanFraction).toLong)
    var covered = 0L
    var nSelected = 0
    while (nSelected < ordered.length && covered < minCover) {
      covered += counts(ordered(nSelected))
      nSelected += 1
    }
    val selected = ordered.take(nSelected).map(c => cellIds(c))
    java.util.Arrays.sort(selected)

    // One pass over the cached postings: keep the selected cells' entries
    // and score each by ADC (cheap LUT sum) and exactly (lines 8–15). The
    // cell id is read first, so only the selected entries' codes and
    // embeddings are copied out of the row.
    val col = CachedRows.column(index.entries, _: String)
    val (cellCol, patchCol, frameCol) = (col("cellId"), col("patchId"), col("frameId"))
    val (codesCol, embCol) = (col("codes"), col("emb"))
    val scanned = CachedRows.scan(index.entries, "ann_search")(_.collect {
      case r if java.util.Arrays.binarySearch(selected, r.getLong(cellCol)) >= 0 =>
        ScoredPosting(r.getLong(patchCol), r.getLong(frameCol),
          pq.adcScore(table, r.getArray(codesCol).toIntArray()),
          VecOps.dot(qn, r.getArray(embCol).toFloatArray()))
    })

    // The exact-rescore depth scales with the scan (ADC ordering is a weak
    // ranker on near-parallel embeddings, so a fixed multiple of k would
    // starve recall as the collection grows).
    val rescoreDepth = math.max(rescoreFactor.toLong * k, covered / 4).toInt
    val rescored = bestFirst(scanned.map(_.adc), scanned.map(_.patchId))
      .take(rescoreDepth).map(j => scanned(j))
    val exact = bestFirst(rescored.map(_.exact), rescored.map(_.patchId))
      .take(k)
      .map { j => val e = rescored(j); SearchHit(e.patchId, e.frameId, e.exact) }
      .toSeq

    val stats = AnnStats(
      lutDots = pq.P.toLong * pq.M,
      cellsScored = cellIds.length,
      cellsSelected = selected.length,
      candidates = covered,
      rescored = rescored.length)
    (exact, stats)
  }

  /** Positions `0 until scores.length` ordered by (score desc, id asc) —
    * a bottom-up merge sort on primitive arrays, so ranking ~10^5 cells
    * or candidates per query sorts no boxed keys. Scores compare as
    * `-score` under `java.lang.Double.compare`.
    */
  private[index] def bestFirst(scores: Array[Double], ids: Array[Long]): Array[Int] = {
    val n = scores.length
    def before(a: Int, b: Int): Boolean = {
      val c = java.lang.Double.compare(-scores(a), -scores(b))
      c < 0 || (c == 0 && ids(a) < ids(b))
    }
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var i = lo; var j = mid; var o = lo
        while (o < hi) {
          if (j >= hi || (i < mid && !before(src(j), src(i)))) { dst(o) = src(i); i += 1 }
          else { dst(o) = src(j); j += 1 }
          o += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }
}
