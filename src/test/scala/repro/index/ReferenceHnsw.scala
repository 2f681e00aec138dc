package repro.index

import scala.collection.mutable
import repro.util.{Rng, VecOps}
import repro.vit.BBox

/** The boxed HNSW graph the flat [[HnswIndex]] replaced: `PriorityQueue`
  * heaps of tuples, a `mutable.Set` visited-set, `ArrayBuffer` link lists.
  * Kept as the test oracle — [[HnswIndex]] must build the same graph, so it
  * must answer every search exactly as this does and count the same
  * distance computations.
  */
final class ReferenceHnswIndex(val dim: Int, val M: Int = 8, val efConstruction: Int = 64,
                               val seed: Long = 7L) {
  private val mL = 1.0 / math.log(M.toDouble)
  private val maxM0 = 2 * M

  private val ids = mutable.ArrayBuffer[Long]()
  private val frameIds = mutable.ArrayBuffer[Long]()
  private val boxes = mutable.ArrayBuffer[BBox]()
  private val vecs = mutable.ArrayBuffer[Array[Float]]()
  // links(node)(level) = neighbour node indices
  private val links = mutable.ArrayBuffer[Array[mutable.ArrayBuffer[Int]]]()

  private var entryPoint: Int = -1
  private var topLevel: Int = -1

  /** Distance computations performed so far (build + queries). */
  var distComps: Long = 0L

  /** Searches that scored unreached nodes exactly (the fallback). */
  var fallbacks: Int = 0

  def size: Int = ids.length

  /** The highest layer any node reached. */
  def maxLevel: Int = topLevel

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

  def add(id: Long, frameId: Long, box: BBox, v: Array[Float]): Unit = {
    require(v.length == dim, s"expected dim $dim, got ${v.length}")
    val node = ids.length
    val level = drawLevel(id)
    ids += id; frameIds += frameId; boxes += box; vecs += VecOps.normalize(v)
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
  def search(q: Array[Float], k: Int, ef: Int = 64): Seq[Candidate] = {
    if (entryPoint < 0) return Seq.empty
    val qn = VecOps.normalize(q)
    val found = searchLayer(qn, Seq(descend(qn, 0)), math.max(ef, k), 0)
    // The keep-the-closest shrink can leave a node with no in-links, which
    // no graph walk reaches; when k asks for more nodes than the walk
    // found, score the unreached ones exactly so k >= size returns them all.
    val ranked =
      if (found.size >= math.min(k, size)) found
      else {
        fallbacks += 1
        val seen = found.map(_._1).toSet
        (found ++ (0 until size).filterNot(seen).map(n => (n, dist(n, qn))))
          .sortBy { case (n, d) => (d, n) }
      }
    ranked
      .take(k)
      .map { case (n, d) => Candidate(ids(n), frameIds(n), -d, boxes(n)) }
  }
}
