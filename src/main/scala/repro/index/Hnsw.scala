package repro.index

import java.util.Arrays
import repro.util.{Rng, VecOps}
import repro.vit.BBox

/** Hierarchical Navigable Small World graph index — the LOVO(HNSW)
  * variant of Table V (Malkov & Yashunin's algorithm).
  *
  * Vectors are unit-normalized, so maximum inner product equals minimum
  * L2 distance; internally distance = -dot. Level draw is deterministic
  * in (element id, seed), so builds are reproducible. Graph indexes do
  * not shard naturally; like a vector DB's per-segment graphs, the build
  * collects the (small) fp32 embedding column to the driver. Distance
  * computations are counted for the cost model.
  *
  * The graph lives in flat primitive arrays: the vectors in one
  * `Array[Float]` of `size * dim` values; the boxes a hit carries in one
  * `Array[Double]` of `4 * size` values; layer-0 links in one `Array[Int]`
  * of fixed per-node blocks; the upper-layer links of a node in one small
  * `Array[Int]`, allocated only for nodes above layer 0. A link block is a
  * count followed by `cap + 1` slots: a neighbour list may run one over its
  * cap (2M on layer 0, M above) until `shrink` cuts it back. Searches mark
  * visited nodes with an epoch stamp and keep their candidates and results
  * in binary heaps over parallel primitive arrays. Every pair order is
  * `java.lang.Double.compare` on the distance, then the node index.
  *
  * Not re-entrant: `add` and `search` reuse the index's visited stamps,
  * heaps and result buffers, and `distComps` is a plain counter, so one
  * index must serve one caller at a time.
  */
final class HnswIndex(val dim: Int, val M: Int = 8, val efConstruction: Int = 64,
                      val seed: Long = 7L) {
  private val mL = 1.0 / math.log(M.toDouble)
  private val maxM0 = 2 * M
  private val stride0 = maxM0 + 2   // layer-0 block: count, 2M + 1 slots
  private val strideUp = M + 2      // upper-layer block: count, M + 1 slots

  private var n = 0
  private var ids = new Array[Long](16)
  private var frameIds = new Array[Long](16)
  private var boxes = new Array[Double](16 * 4)
  private var vecs = new Array[Float](16 * dim)
  private var links0 = new Array[Int](16 * stride0)
  // upper(node): blocks of layers 1..level, null for a layer-0 node
  private var upper = new Array[Array[Int]](16)
  private var visited = new Array[Int](16)
  private var epoch = 0

  private var entryPoint: Int = -1
  private var topLevel: Int = -1

  private val candidates = new PairHeap(greatestFirst = false)
  private val results = new PairHeap(greatestFirst = true)
  // searchLayer's output, ascending; it also seeds the next layer down
  private var foundD = new Array[Double](64)
  private var foundN = new Array[Int](64)
  private val entry = new Array[Int](1)
  private val shrinkD = new Array[Double](maxM0 + 1)
  private val shrinkN = new Array[Int](maxM0 + 1)
  // neighbours of one link block (the unvisited ones, in a search) and
  // their distances
  private val nbN = new Array[Int](maxM0 + 1)
  private val nbD = new Array[Double](maxM0 + 1)

  /** Distance computations performed so far (build + queries). */
  var distComps: Long = 0L

  def size: Int = n

  /** The counted distance, -dot, of stored vector `node` to `q` at `qo`. */
  private def dist(node: Int, q: Array[Float], qo: Int): Double = {
    distComps += 1
    -dot(node, q, qo)
  }

  /** Dot product of stored vector `node` with the `dim` values of `q` from
    * `qo`, accumulated in double in index order.
    */
  private def dot(node: Int, q: Array[Float], qo: Int): Double = {
    val v = vecs; val o = node * dim
    var s = 0.0; var i = 0
    while (i < dim) { s += v(o + i).toDouble * q(qo + i); i += 1 }
    s
  }

  /** `out(j) = dist(nodes(from + j), q, qo)` for `j < count`, four nodes
    * at a time. Each sum still runs in index order, so every distance is
    * bit-identical to [[dist]]'s; the four independent sums overlap in the
    * pipeline and their vector loads in the memory system.
    */
  private def distances(nodes: Array[Int], from: Int, count: Int, q: Array[Float], qo: Int,
                        out: Array[Double]): Unit = {
    distComps += count
    val v = vecs
    var j = 0
    while (j + 4 <= count) {
      val o0 = nodes(from + j) * dim; val o1 = nodes(from + j + 1) * dim
      val o2 = nodes(from + j + 2) * dim; val o3 = nodes(from + j + 3) * dim
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var i = 0
      while (i < dim) {
        val x = q(qo + i).toDouble
        s0 += v(o0 + i).toDouble * x; s1 += v(o1 + i).toDouble * x
        s2 += v(o2 + i).toDouble * x; s3 += v(o3 + i).toDouble * x
        i += 1
      }
      out(j) = -s0; out(j + 1) = -s1; out(j + 2) = -s2; out(j + 3) = -s3
      j += 4
    }
    while (j < count) { out(j) = -dot(nodes(from + j), q, qo); j += 1 }
  }

  private def drawLevel(id: Long): Int = {
    val u = math.max(Rng.uniform(Rng.mix(id, seed), 0xE1L), 1e-12)
    math.min(12, (-math.log(u) * mL).toInt)
  }

  /** The array holding the link block of (node, level) ... */
  private def block(node: Int, level: Int): Array[Int] =
    if (level == 0) links0 else upper(node)

  /** ... and the offset of its count; the links follow it. */
  private def base(node: Int, level: Int): Int =
    if (level == 0) node * stride0 else (level - 1) * strideUp

  private def link(node: Int, level: Int, nb: Int): Unit = {
    val b = block(node, level); val o = base(node, level)
    b(o) += 1
    b(o + b(o)) = nb
  }

  private def grow(capacity: Int): Unit = if (capacity > ids.length) {
    val c = math.max(capacity, 2 * ids.length)
    ids = Arrays.copyOf(ids, c); frameIds = Arrays.copyOf(frameIds, c); boxes = Arrays.copyOf(boxes, c * 4)
    vecs = Arrays.copyOf(vecs, c * dim); links0 = Arrays.copyOf(links0, c * stride0)
    upper = Arrays.copyOf(upper, c); visited = Arrays.copyOf(visited, c)
  }

  private def growFound(capacity: Int): Unit = if (capacity > foundN.length) {
    val c = math.max(capacity, 2 * foundN.length)
    foundD = Arrays.copyOf(foundD, c); foundN = Arrays.copyOf(foundN, c)
  }

  /** A fresh visited mark: no node carries it yet. */
  private def nextEpoch(): Unit = {
    if (epoch == Int.MaxValue) { Arrays.fill(visited, 0); epoch = 0 }
    epoch += 1
  }

  /** Greedy best-first search within one layer from the first `nEps`
    * entry points of `eps`; leaves up to ef nearest (distance, node) pairs
    * in `foundD`/`foundN`, ascending, and returns their number. `eps` may
    * be `foundN` itself: the entry points are read before it is written.
    */
  private def searchLayer(q: Array[Float], qo: Int, eps: Array[Int], nEps: Int,
                          ef: Int, level: Int): Int = {
    nextEpoch()
    candidates.clear(); results.clear()
    var i = 0
    while (i < nEps) {
      val ep = eps(i)
      if (visited(ep) != epoch) {
        visited(ep) = epoch
        val d = dist(ep, q, qo)
        candidates.push(d, ep); results.push(d, ep)
      }
      i += 1
    }
    while (candidates.size > 0) {
      val cd = candidates.topDist; val c = candidates.topNode
      candidates.pop()
      if (cd > results.topDist && results.size >= ef) {
        candidates.clear() // nearest remaining candidate cannot improve
      } else {
        val b = block(c, level); val o = base(c, level)
        var fresh = 0
        var j = 1
        while (j <= b(o)) {
          val nb = b(o + j)
          if (visited(nb) != epoch) { visited(nb) = epoch; nbN(fresh) = nb; fresh += 1 }
          j += 1
        }
        distances(nbN, 0, fresh, q, qo, nbD)
        j = 0
        while (j < fresh) {
          val d = nbD(j); val nb = nbN(j)
          if (results.size < ef || d < results.topDist) {
            candidates.push(d, nb); results.push(d, nb)
            if (results.size > ef) results.pop()
          }
          j += 1
        }
      }
    }
    val count = results.size
    growFound(count)
    var r = count - 1
    while (r >= 0) {
      foundD(r) = results.topDist; foundN(r) = results.topNode
      results.pop(); r -= 1
    }
    count
  }

  /** Greedy descent through the layers above `toLevel`: on each layer move
    * to the closest neighbour until none improves, starting from the entry
    * point; returns the node reached.
    */
  private def descend(q: Array[Float], qo: Int, toLevel: Int): Int = {
    var ep = entryPoint
    var lc = topLevel
    while (lc > toLevel) {
      var improved = true
      var bestD = dist(ep, q, qo)
      while (improved) {
        improved = false
        // one sweep over the neighbours of the node the sweep started at
        val b = block(ep, lc); val o = base(ep, lc)
        var j = 1
        while (j <= b(o)) {
          val nb = b(o + j)
          val d = dist(nb, q, qo)
          if (d < bestD) { bestD = d; ep = nb; improved = true }
          j += 1
        }
      }
      lc -= 1
    }
    ep
  }

  /** Prune a neighbour list to the `cap` closest (simple selection). */
  private def shrink(node: Int, level: Int, cap: Int): Unit = {
    val b = block(node, level); val o = base(node, level)
    val count = b(o)
    if (count > cap) {
      // insertion sort of the (distance, neighbour) pairs
      distances(b, o + 1, count, vecs, node * dim, nbD)
      var i = 0
      while (i < count) {
        val nb = b(o + 1 + i)
        val d = nbD(i)
        var j = i
        while (j > 0 && PairHeap.less(d, nb, shrinkD(j - 1), shrinkN(j - 1))) {
          shrinkD(j) = shrinkD(j - 1); shrinkN(j) = shrinkN(j - 1); j -= 1
        }
        shrinkD(j) = d; shrinkN(j) = nb
        i += 1
      }
      System.arraycopy(shrinkN, 0, b, o + 1, cap)
      b(o) = cap
    }
  }

  def add(id: Long, frameId: Long, box: BBox, v: Array[Float]): Unit = {
    require(v.length == dim, s"expected dim $dim, got ${v.length}")
    val node = n
    val level = drawLevel(id)
    grow(node + 1)
    ids(node) = id; frameIds(node) = frameId
    boxes(4 * node) = box.x; boxes(4 * node + 1) = box.y
    boxes(4 * node + 2) = box.w; boxes(4 * node + 3) = box.h
    System.arraycopy(VecOps.normalize(v), 0, vecs, node * dim, dim)
    if (level > 0) upper(node) = new Array[Int](level * strideUp)
    n += 1

    if (entryPoint < 0) { entryPoint = node; topLevel = level; return }

    // connect on layers min(level, topLevel) .. 0
    val qo = node * dim
    var l = math.min(level, topLevel)
    entry(0) = descend(vecs, qo, level)
    var eps = entry; var nEps = 1
    while (l >= 0) {
      val nFound = searchLayer(vecs, qo, eps, nEps, efConstruction, l)
      val cap = if (l == 0) maxM0 else M
      var i = 0
      while (i < math.min(M, nFound)) {
        val nb = foundN(i)
        link(node, l, nb)
        link(nb, l, node)
        shrink(nb, l, cap)
        i += 1
      }
      eps = foundN; nEps = nFound
      l -= 1
    }
    if (level > topLevel) { topLevel = level; entryPoint = node }
  }

  /** Top-k maximum-inner-product search; returns hits descending by score. */
  def search(q: Array[Float], k: Int, ef: Int = 64): Seq[Candidate] = {
    require(q.length == dim, s"expected dim $dim, got ${q.length}")
    require(k > 0, "k must be positive")
    if (entryPoint < 0) return Seq.empty
    val qn = VecOps.normalize(q)
    entry(0) = descend(qn, 0, 0)
    var count = searchLayer(qn, 0, entry, 1, math.max(ef, k), 0)
    // The keep-the-closest shrink can leave a node with no in-links, which
    // no graph walk reaches; when k asks for more nodes than the walk
    // found, score the unreached ones exactly so k >= size returns them all.
    if (count < math.min(k, n)) {
      nextEpoch()
      var i = 0
      while (i < count) { visited(foundN(i)) = epoch; i += 1 }
      growFound(n)
      var node = 0
      while (node < n) {
        if (visited(node) != epoch) {
          foundD(count) = dist(node, qn, 0); foundN(count) = node; count += 1
        }
        node += 1
      }
    }
    // scores = -distance; bestFirst orders them as the (distance, node) pairs
    val scores = Array.tabulate(count)(i => -foundD(i))
    AnnSearch.bestFirst(scores, Array.tabulate(count)(i => foundN(i).toLong))
      .iterator.take(k)
      .map { j => val node = foundN(j); Candidate(ids(node), frameIds(node), scores(j), BBox.packed(boxes, node)) }
      .toVector
  }
}

/** A binary heap of (distance, node) pairs over parallel primitive arrays,
  * ordered by [[PairHeap.less]]; the top is the least pair, or the greatest
  * when `greatestFirst`.
  */
private final class PairHeap(greatestFirst: Boolean) {
  private var ds = new Array[Double](64)
  private var ns = new Array[Int](64)
  var size = 0

  def topDist: Double = ds(0)
  def topNode: Int = ns(0)
  def clear(): Unit = size = 0

  /** Whether (d1, n1) belongs above (d2, n2). */
  private def above(d1: Double, n1: Int, d2: Double, n2: Int): Boolean =
    if (greatestFirst) PairHeap.less(d2, n2, d1, n1) else PairHeap.less(d1, n1, d2, n2)

  def push(d: Double, node: Int): Unit = {
    if (size == ds.length) { ds = Arrays.copyOf(ds, 2 * size); ns = Arrays.copyOf(ns, 2 * size) }
    // move parents down into the hole until (d, node) fits
    var i = size
    size += 1
    var settled = false
    while (!settled && i > 0) {
      val p = (i - 1) / 2
      if (above(d, node, ds(p), ns(p))) { ds(i) = ds(p); ns(i) = ns(p); i = p }
      else settled = true
    }
    ds(i) = d; ns(i) = node
  }

  def pop(): Unit = {
    size -= 1
    val d = ds(size); val node = ns(size)
    // move children up into the hole until the last pair fits
    var i = 0
    var settled = false
    while (!settled) {
      var c = 2 * i + 1
      if (c + 1 < size && above(ds(c + 1), ns(c + 1), ds(c), ns(c))) c += 1
      if (c < size && above(ds(c), ns(c), d, node)) { ds(i) = ds(c); ns(i) = ns(c); i = c }
      else settled = true
    }
    ds(i) = d; ns(i) = node
  }
}

private object PairHeap {

  /** (d1, n1) before (d2, n2): `java.lang.Double.compare`, then node. */
  def less(d1: Double, n1: Int, d2: Double, n2: Int): Boolean = {
    val c = java.lang.Double.compare(d1, d2)
    c < 0 || (c == 0 && n1 < n2)
  }
}

object Hnsw {

  /** Build from the stored index entries in patch-id order (a
    * deterministic insert order), from the posting blocks collected in one
    * narrow scan of the cached entries.
    */
  def build(index: InvertedMultiIndex, m: Int = 8, efConstruction: Int = 64,
            seed: Long = 7L): HnswIndex = {
    val blocks = index.scan(identity).toSeq
    val pids = Array.concat(blocks.map(_.patchIds): _*)
    val fids = Array.concat(blocks.map(_.frameIds): _*)
    val boxes = Array.concat(blocks.map(_.boxes): _*)
    val embs = Array.concat(blocks.map(_.embs): _*)
    val dim = index.pq.dim
    val g = new HnswIndex(dim, m, efConstruction, seed)
    for (j <- pids.indices.sortBy(pids))
      g.add(pids(j), fids(j), BBox.packed(boxes, j), java.util.Arrays.copyOfRange(embs, j * dim, (j + 1) * dim))
    g
  }

  /** Search wrapper returning the same stats shape as the other variants. */
  def search(g: HnswIndex, q: Array[Float], k: Int, ef: Int = 64): (Seq[Candidate], AnnStats) = {
    val before = g.distComps
    val hits = g.search(q, k, ef)
    val comps = g.distComps - before
    (hits, AnnStats(lutDots = 0, cellsScored = 0, cellsSelected = 0,
      candidates = comps, rescored = hits.size))
  }
}
