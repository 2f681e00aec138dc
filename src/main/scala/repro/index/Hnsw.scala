package repro.index

import scala.collection.mutable
import org.apache.spark.sql.Dataset
import repro.util.{Rng, VecOps}

/** Hierarchical Navigable Small World graph index — the LOVO(HNSW)
  * variant of Table V (Malkov & Yashunin's algorithm).
  *
  * Vectors are unit-normalized, so maximum inner product equals minimum
  * L2 distance; internally distance = -dot. Level draw is deterministic
  * in (element id, seed), so builds are reproducible. Graph indexes do
  * not shard naturally; like a vector DB's per-segment graphs, the build
  * collects the (small) fp32 embedding column to the driver. Distance
  * computations are counted for the cost model.
  */
final class HnswIndex(val dim: Int, val M: Int = 8, val efConstruction: Int = 64,
                      val seed: Long = 7L) {
  private val mL = 1.0 / math.log(M.toDouble)
  private val maxM0 = 2 * M

  private val ids = mutable.ArrayBuffer[Long]()
  private val frameIds = mutable.ArrayBuffer[Long]()
  private val vecs = mutable.ArrayBuffer[Array[Float]]()
  // links(node)(level) = neighbour node indices
  private val links = mutable.ArrayBuffer[Array[mutable.ArrayBuffer[Int]]]()

  private var entryPoint: Int = -1
  private var topLevel: Int = -1

  /** Distance computations performed so far (build + queries). */
  var distComps: Long = 0L

  def size: Int = ids.length

  private def dist(node: Int, q: Array[Float]): Double = {
    distComps += 1
    -VecOps.dot(vecs(node), q)
  }

  private def drawLevel(id: Long): Int = {
    val u = math.max(Rng.uniform(Rng.mix(id, seed), 0xE1L), 1e-12)
    math.min(12, (-math.log(u) * mL).toInt)
  }

  /** Greedy best-first search within one layer; returns up to ef nearest
    * (node, dist) pairs, ascending by distance.
    */
  private def searchLayer(q: Array[Float], eps: Seq[Int], ef: Int, level: Int): Seq[(Int, Double)] = {
    val visited = mutable.Set[Int]()
    // candidates: nearest first; results: farthest first
    val nearOrd: Ordering[(Double, Int)] =
      Ordering.by[(Double, Int), (Double, Int)](t => (-t._1, -t._2))
    val farOrd: Ordering[(Double, Int)] =
      Ordering.by[(Double, Int), (Double, Int)](t => (t._1, t._2))
    val candidates = mutable.PriorityQueue.empty[(Double, Int)](nearOrd)
    val results = mutable.PriorityQueue.empty[(Double, Int)](farOrd)
    for (ep <- eps.distinct) {
      val d = dist(ep, q)
      visited += ep
      candidates.enqueue((d, ep))
      results.enqueue((d, ep))
    }
    while (candidates.nonEmpty) {
      val (cd, c) = candidates.dequeue()
      if (cd > results.head._1 && results.size >= ef) {
        candidates.clear() // nearest remaining candidate cannot improve
      } else {
        for (nb <- links(c)(level) if !visited.contains(nb)) {
          visited += nb
          val d = dist(nb, q)
          if (results.size < ef || d < results.head._1) {
            candidates.enqueue((d, nb))
            results.enqueue((d, nb))
            if (results.size > ef) results.dequeue()
          }
        }
      }
    }
    val drained: List[(Double, Int)] = results.dequeueAll.toList
    drained.reverse.map(t => (t._2, t._1))
  }

  /** Greedy descent through the layers above `toLevel`: on each layer move
    * to the closest neighbour until none improves, starting from the entry
    * point; returns the node reached.
    */
  private def descend(q: Array[Float], toLevel: Int): Int = {
    var ep = entryPoint
    var lc = topLevel
    while (lc > toLevel) {
      var improved = true
      var bestD = dist(ep, q)
      while (improved) {
        improved = false
        for (nb <- links(ep)(lc)) {
          val d = dist(nb, q)
          if (d < bestD) { bestD = d; ep = nb; improved = true }
        }
      }
      lc -= 1
    }
    ep
  }

  /** Prune a neighbour list to the `cap` closest (simple selection). */
  private def shrink(node: Int, level: Int, cap: Int): Unit = {
    val lst = links(node)(level)
    if (lst.length > cap) {
      val kept = lst.map(nb => (dist(nb, vecs(node)), nb)).sorted.take(cap).map(_._2)
      lst.clear(); lst ++= kept
    }
  }

  def add(id: Long, frameId: Long, v: Array[Float]): Unit = {
    require(v.length == dim, s"expected dim $dim, got ${v.length}")
    val node = ids.length
    val level = drawLevel(id)
    ids += id; frameIds += frameId; vecs += VecOps.normalize(v)
    links += Array.fill(level + 1)(mutable.ArrayBuffer[Int]())

    if (entryPoint < 0) { entryPoint = node; topLevel = level; return }

    // connect on layers min(level, topLevel) .. 0
    var l = math.min(level, topLevel)
    var eps = Seq(descend(vecs(node), level))
    while (l >= 0) {
      val found = searchLayer(vecs(node), eps, efConstruction, l)
      val cap = if (l == 0) maxM0 else M
      val neighbours = found.take(M).map(_._1)
      for (nb <- neighbours) {
        links(node)(l) += nb
        links(nb)(l) += node
        shrink(nb, l, cap)
      }
      eps = found.map(_._1)
      l -= 1
    }
    if (level > topLevel) { topLevel = level; entryPoint = node }
  }

  /** Top-k maximum-inner-product search; returns hits descending by score. */
  def search(q: Array[Float], k: Int, ef: Int = 64): Seq[SearchHit] = {
    if (entryPoint < 0) return Seq.empty
    val qn = VecOps.normalize(q)
    val found = searchLayer(qn, Seq(descend(qn, 0)), math.max(ef, k), 0)
    // The keep-the-closest shrink can leave a node with no in-links, which
    // no graph walk reaches; when k asks for more nodes than the walk
    // found, score the unreached ones exactly so k >= size returns them all.
    val ranked =
      if (found.size >= math.min(k, size)) found
      else {
        val seen = found.map(_._1).toSet
        (found ++ (0 until size).filterNot(seen).map(n => (n, dist(n, qn))))
          .sortBy { case (n, d) => (d, n) }
      }
    ranked
      .take(k)
      .map { case (n, d) => SearchHit(ids(n), frameIds(n), -d) }
  }
}

object Hnsw {

  /** Build from the stored index entries (deterministic insert order). */
  def build(index: InvertedMultiIndex, m: Int = 8, efConstruction: Int = 64,
            seed: Long = 7L): HnswIndex = {
    val spark = index.entries.sparkSession
    import spark.implicits._
    val rows = index.entries
      .map(e => (e.patchId, e.frameId, e.emb))
      .collect()
      .sortBy(_._1)
    val dim = index.pq.dim
    val g = new HnswIndex(dim, m, efConstruction, seed)
    rows.foreach { case (pid, fid, v) => g.add(pid, fid, v) }
    g
  }

  /** Search wrapper returning the same stats shape as the other variants. */
  def search(g: HnswIndex, q: Array[Float], k: Int, ef: Int = 64): (Seq[SearchHit], AnnStats) = {
    val before = g.distComps
    val hits = g.search(q, k, ef)
    val comps = g.distComps - before
    (hits, AnnStats(lutDots = 0, cellsScored = 0, cellsSelected = 0,
      candidates = comps, rescored = hits.size))
  }
}
