package repro.index

import org.apache.spark.sql.functions.col
import repro.util.VecOps

/** A raw vector-database hit (before the metadata join). */
final case class SearchHit(patchId: Long, frameId: Long, score: Double)

/** Operation counts of one search — the cost model's inputs. */
final case class AnnStats(
    lutDots: Long,        // q_p · centroid dot products (P*M)
    cellsScored: Long,    // directory cells ranked on the driver
    cellsSelected: Long,  // cells whose postings were fetched
    candidates: Long,     // vectors ADC-scored (postings scanned)
    rescored: Long)       // vectors exactly rescored

/** Approximate nearest-neighbor search over the inverted multi-index —
  * the paper's Algorithm 1 as a driver-planned distributed lookup/join.
  *
  * 1. Partition the (unit-normalized) query into P subvectors; build the
  *    ADC lookup table q_p · centroid (lines 1–5).
  * 2. Rank the populated cells of the driver-side directory by their
  *    summed LUT score and visit them best-first (the multi-sequence
  *    order) until an nprobe-style fraction of the collection is covered.
  *    The top-A product set of line 6 is not applied (see the inline note).
  * 3. Join the selected cell ids against the distributed postings, score
  *    each candidate with the LUT sum (lines 8–12).
  * 4. Exactly rescore the best max(rescoreFactor * k, scanned/4)
  *    candidates with the stored full vectors and return the top-k
  *    (lines 13–17; ties broken by patch id for determinism). Every hit
  *    is one stored vector with its own patch id, so line 16's patch-id
  *    vote over per-subspace components has nothing to decide.
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

    // Rank populated cells by summed LUT score (multi-sequence order).
    val scoredCells = index.cellDirectory.iterator.map { case (cell, count) =>
      (cell, count, pq.adcScore(table, pq.decodeCell(cell)))
    }.toIndexedSeq

    // Multi-sequence scan order: cells strictly by descending summed LUT
    // score (Babenko-Lempitsky's best-first traversal), visited until the
    // nprobe-style budget is covered. The top-A product set of line 6 is
    // not applied — under encoder noise a relevant cell routinely has one
    // off-top-A code, and letting the (background-dominated) product set
    // preempt the budget destroys recall. The budget itself follows the
    // paper's w/o-ANNS fast-search deltas (0.06 s vs 0.15 s on
    // Cityscapes): an effective scan of ~1/8 of the stored vectors.
    val ordered = scoredCells.sortBy { case (cell, _, s) => (-s, cell) }
    val minCover = math.max(rescoreFactor.toLong * k,
      math.ceil(index.total * scanFraction).toLong)
    val selected = Vector.newBuilder[Long]
    var covered = 0L
    for ((cell, count, _) <- ordered if covered < minCover) {
      selected += cell; covered += count
    }
    val cellSet = selected.result()

    // Distributed posting fetch: join selected cells against the index.
    val spark = index.entries.sparkSession
    import spark.implicits._
    val cellsDf = spark.createDataset(cellSet).toDF("cellId")
    val fetched = index.entries.join(cellsDf, Seq("cellId"), "leftsemi").as[IndexedVec]

    // ADC scoring of candidates (cheap LUT sum). The exact-rescore depth
    // scales with the scan (ADC ordering is a weak ranker on near-parallel
    // embeddings, so a fixed multiple of k would starve recall as the
    // collection grows).
    val rescoreDepth = math.max(rescoreFactor.toLong * k, covered / 4).toInt
    val tableB = table
    val approx = fetched
      .map(e => (e.patchId, e.frameId, {
        var s = 0.0; var p = 0
        while (p < tableB.length) { s += tableB(p)(e.codes(p)); p += 1 }
        s
      }, e.emb))
      .toDF("patchId", "frameId", "approxScore", "emb")
      .orderBy(col("approxScore").desc, col("patchId"))
      .limit(rescoreDepth)
      .as[(Long, Long, Double, Array[Float])]
      .collect()

    // Exact rescoring with the stored full vectors (lines 13–15).
    val exact = approx
      .map { case (pid, fid, _, emb) => SearchHit(pid, fid, VecOps.dot(qn, emb)) }
      .sortBy(h => (-h.score, h.patchId))
      .take(k)
      .toSeq

    val stats = AnnStats(
      lutDots = pq.P.toLong * pq.M,
      cellsScored = scoredCells.size,
      cellsSelected = cellSet.size,
      candidates = covered,
      rescored = approx.length)
    (exact, stats)
  }
}
