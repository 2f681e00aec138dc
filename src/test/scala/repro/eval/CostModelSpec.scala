package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.index.AnnStats
import repro.rerank.RerankResult

class CostModelSpec extends AnyFunSuite {

  test("processing anchors to the paper's 0.08 s per keyframe (Fig 11a)") {
    assert(CostModel.tEncodePerKeyframe == 0.08)
    val t = CostModel.processing(rawFrames = 3000, keyFrames = 1000)
    assert(math.abs(t - (3000 * 0.001 + 1000 * 0.08)) < 1e-12)
  }

  test("dataset calibration puts LOVO processing near Table III") {
    // cityscapes: 4425 raw, 1475 key -> paper 118 s
    val city = CostModel.processing(4425, 1475)
    assert(city > 100 && city < 140, s"cityscapes processing $city")
    // bellevue: 7200 raw, 2400 key -> paper 192 s
    val bell = CostModel.processing(7200, 2400)
    assert(bell > 170 && bell < 215, s"bellevue processing $bell")
  }

  test("fast search grows with candidates scanned") {
    def stats(cands: Long) = AnnStats(64, 100, 10, cands, 40)
    assert(CostModel.fastSearch(stats(10000)) > CostModel.fastSearch(stats(100)))
  }

  test("ANN fast search lands in the paper's regime, exhaustive higher") {
    // ~35% scan + rescore (keyframe index) vs full 71k pass (w/o ANNS)
    val ann = CostModel.fastSearch(AnnStats(128, 20000, 8000, 24800, 6200))
    val bf = CostModel.fastSearch(AnnStats(0, 0, 40000, 70800, 0))
    assert(ann > 0.03 && ann < 0.15, s"ann=$ann (paper 0.03-0.09)")
    assert(bf > 0.1 && bf < 0.5, s"bf=$bf (paper 0.15-0.35)")
    assert(bf / ann > 1.4, s"ratio ${bf / ann} (paper ~2.5)")
  }

  test("rerank cost ~0.45 s per candidate frame at typical token counts") {
    // 50 frames x ~6 objects, 5 text tokens
    val rr = RerankResult(Seq.empty, framesProcessed = 50,
      totalImageTokens = 300, textTokens = 5)
    val perFrame = CostModel.rerank(rr) / 50
    assert(perFrame > 0.3 && perFrame < 0.7, s"per-frame rerank $perFrame")
  }

  test("rerank cost scales with frames and token pairs") {
    def rr(frames: Int, tokens: Long) =
      RerankResult(Seq.empty, frames, tokens, 5)
    assert(CostModel.rerank(rr(100, 600)) > CostModel.rerank(rr(50, 300)))
    assert(CostModel.rerank(rr(50, 600)) > CostModel.rerank(rr(50, 300)))
  }

  test("index build: BF free, IVF-PQ cheap, HNSW from measured comps") {
    assert(CostModel.indexingBf == 0.0)
    val ivf = CostModel.indexingIvfPq(70000, 8, 4, 16, 8)
    assert(ivf > 0 && ivf < 10, s"ivf=$ivf")
    val hnsw = CostModel.indexingHnsw(30_000_000L)
    assert(hnsw > ivf, "HNSW build must cost more than IVF (paper Table V gap)")
  }

  test("baseline latency structure matches Table III's ordering") {
    val raw = 4425L; val key = 1475L
    val zeldaS = CostModel.zeldaSearch(key)
    val umtS = CostModel.umtSearch(raw / 4)
    val visaS = CostModel.visaSearch(key)
    // paper: ZELDA search ~5s << UMT ~104 s << VISA (huge)
    assert(zeldaS < 10 && zeldaS < umtS && umtS < visaS)
    // VISA dominates everyone in processing too
    assert(CostModel.visaProcessing(raw) > CostModel.zeldaProcessing(raw))
    assert(CostModel.zeldaProcessing(raw) > CostModel.umtProcessing(raw))
  }

  test("QD-search per-query scans are orders beyond LOVO's fast search (85x claim)") {
    val figo = CostModel.figoSearch(4425)
    val miris = CostModel.mirisSearch(4425)
    val lovoSearch = CostModel.fastSearch(AnnStats(64, 2000, 16, 300, 200)) + 23.0
    assert(figo / lovoSearch > 50, s"figo/lovo = ${figo / lovoSearch}")
    assert(miris / lovoSearch > 5, s"miris/lovo = ${miris / lovoSearch}")
    assert(figo > miris)
  }
}
