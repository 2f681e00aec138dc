package repro.index

import org.apache.spark.sql.functions.col
import repro.util.VecOps

/** Exhaustive exact scan — the w/o-ANNS ablation (Table IV) and the
  * LOVO(BF) variant (Table V). Flattens the posting blocks and scores every
  * stored vector with the exact inner product in a distributed map, then
  * takes the global top-k with a SQL `orderBy`/`limit`.
  */
object BruteForce {

  def search(index: InvertedMultiIndex, q: Array[Float], k: Int): (Seq[SearchHit], AnnStats) = {
    require(k > 0, "k must be positive")
    require(q.length == index.pq.dim, s"expected query dim ${index.pq.dim}, got ${q.length}")
    val qn = VecOps.normalize(q)
    val dim = qn.length
    val spark = index.entries.sparkSession
    import spark.implicits._
    val hits = index.entries
      .flatMap(b => b.patchIds.indices.map(j =>
        (b.patchIds(j), b.frameIds(j), VecOps.dotAt(qn, b.embs, j * dim))))
      .toDF("patchId", "frameId", "score")
      .orderBy(col("score").desc, col("patchId"))
      .limit(k)
      .as[(Long, Long, Double)]
      .collect()
      .map { case (pid, fid, s) => SearchHit(pid, fid, s) }
      .toSeq
    // one exact pass over everything; no second rescore stage
    val stats = AnnStats(
      lutDots = 0L,
      cellsScored = 0L,
      cellsSelected = index.nCells,
      candidates = index.total,
      rescored = 0L)
    (hits, stats)
  }
}
