package repro.eval

import repro.index.AnnStats
import repro.rerank.RerankResult

/** Latency model: calibrated per-operation constants × operation counts
  * measured from the actual pipeline runs (DESIGN.md §2).
  *
  * The paper's absolute timings are properties of its RTX 3090 testbed;
  * what the evaluation *claims* is carried by where the operations go
  * (offline vs per-query, per-frame vs per-candidate). Constants are
  * anchored once, globally, to the paper's published per-unit figures —
  * 0.08 s/keyframe summary (Fig 11a), ~1e-4 s/entity-scale fast search
  * (Fig 11c), ~1 s/keyframe-scale rerank (Fig 11d) — and never tuned
  * per table. Measured wall-clock per stage is reported by the separate
  * `lovobench/` benchmark, beside these modeled seconds.
  */
object CostModel {

  // ---- LOVO constants ---------------------------------------------------
  /** Motion-vector keyframe scan, per raw frame (compressed domain). */
  val tKeyframePerRaw = 0.001
  /** ViT summary + localization per keyframe (paper Fig 11a: ~0.08 s). */
  val tEncodePerKeyframe = 0.08
  /** Per-vector ADC / exact scoring during search (calibrated so a
    * brute-force pass over Cityscapes' ~71k vectors costs ~0.16 s — the
    * paper's w/o-ANNS fast-search column). */
  val tVecScan = 2.2e-6
  /** Per exact-rescore full-vector dot (second pass over ADC survivors). */
  val tExactScan = 5.0e-6
  /** Per q_p · centroid LUT dot. */
  val tCentroidDot = 2.0e-6
  /** Per directory-cell ranking step on the driver. */
  val tCellScore = 2.0e-7
  /** Text-encoder forward pass for the fast-search query vector. */
  val tQueryEncode = 0.005
  /** Fixed per-query search overhead: dispatch, and in the paper's system
    * the relational metadata lookup. Here the hits carry their boxes, so
    * no lookup runs, but the constant is calibrated against the paper's
    * figures and stays. */
  val tSearchOverhead = 0.005
  /** Cross-modality transformer fixed cost per candidate frame. */
  val tRerankBase = 0.2
  /** Per image-token × text-token attention pair in the rerank. */
  val tRerankPerTokenPair = 0.008
  /** K-means: per vector, per iteration, per subspace-centroid distance. */
  val tKmeansOp = 2.0e-9
  /** PQ encode per vector (P nearest-centroid scans). */
  val tEncodeOp = 2.0e-9
  /** Per HNSW distance computation (batched/SIMD regime). */
  val tHnswComp = 5.0e-7

  /** Offline video processing: keyframe scan + visual summary. */
  def processing(rawFrames: Long, keyFrames: Long): Double =
    rawFrames * tKeyframePerRaw + keyFrames * tEncodePerKeyframe

  /** IVF-PQ index build: Lloyd training + encoding. */
  def indexingIvfPq(entries: Long, iters: Int, subspaces: Int, centroids: Int,
                    subdim: Int): Double = {
    val perVecIter = subspaces.toLong * centroids * subdim
    entries * iters * perVecIter * tKmeansOp + entries * perVecIter * tEncodeOp
  }

  /** Brute force has no index build. */
  def indexingBf: Double = 0.0

  /** HNSW build cost from the measured distance-computation count. */
  def indexingHnsw(buildDistComps: Long): Double = buildDistComps * tHnswComp

  /** Fast-search latency from the search's operation counts. */
  def fastSearch(stats: AnnStats): Double =
    tQueryEncode + tSearchOverhead +
      stats.lutDots * tCentroidDot +
      stats.cellsScored * tCellScore +
      stats.candidates * tVecScan +
      stats.rescored * tExactScan

  /** Rerank latency from frames processed and attention pairs computed. */
  def rerank(rr: RerankResult): Double =
    rr.framesProcessed * tRerankBase +
      rr.totalImageTokens.toDouble * rr.textTokens * tRerankPerTokenPair

  // ---- baseline constants (Table III / Table I efficiency classes) ------
  /** ZELDA: CLIP image encoder per raw frame. */
  val tZeldaPerRaw = 0.032
  /** ZELDA: query-side encode + global top-k machinery. */
  val tZeldaSearchBase = 3.0
  val tZeldaPerIndexFrame = 2.0e-4
  /** UMT: lightweight feature extraction per raw frame. */
  val tUmtPerRaw = 0.006
  /** UMT: joint moment-retrieval transformer per candidate window. */
  val tUmtPerWindow = 0.094
  /** VISA: video preprocessing (frame features for the LLM) per raw frame. */
  val tVisaPerRaw = 0.07
  /** VISA: LLM reasoning per keyframe at query time. */
  val tVisaPerKey = 0.25
  /** MIRIS: per-query plan/model configuration + tracker scan per frame. */
  val tMirisPlan = 120.0
  val tMirisPerRaw = 0.05
  /** FiGO: detector-ensemble invocation per raw frame per query. */
  val tFigoPerRaw = 0.48
  /** VOCAL: scene-graph indexing per keyframe (offline). */
  val tVocalPerKey = 0.5
  val tVocalSearch = 0.5
  /** DINO: frame decode/resize per raw frame (light preprocessing). */
  val tDinoPerRaw = 0.01
  /** DINO: cross-modality transformer pass per keyframe per query. */
  val tDinoPerKey = 0.2

  def zeldaProcessing(raw: Long): Double = raw * tZeldaPerRaw
  def zeldaSearch(indexFrames: Long): Double = tZeldaSearchBase + indexFrames * tZeldaPerIndexFrame
  def umtProcessing(raw: Long): Double = raw * tUmtPerRaw
  def umtSearch(windows: Long): Double = windows * tUmtPerWindow
  def visaProcessing(raw: Long): Double = raw * tVisaPerRaw
  def visaSearch(keyFrames: Long): Double = keyFrames * tVisaPerKey
  def mirisSearch(raw: Long): Double = tMirisPlan + raw * tMirisPerRaw
  def figoSearch(raw: Long): Double = raw * tFigoPerRaw
  def vocalIndexing(keyFrames: Long): Double = keyFrames * tVocalPerKey
  def dinoProcessing(raw: Long): Double = raw * tDinoPerRaw
  def dinoSearch(keyFrames: Long): Double = keyFrames * tDinoPerKey
}
