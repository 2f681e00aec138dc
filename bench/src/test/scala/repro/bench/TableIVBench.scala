package repro.bench

import repro.SparkSpec
import repro.eval.tables.{TableFmt, TableIV}

/** Table IV — the ablation study. Shape checks:
  *  - removing the rerank hurts accuracy, most on the complex Q2.2
  *  - removing ANNS inflates fast-search latency (exhaustive scan)
  *  - removing keyframe selection inflates fast search and storage (~3x)
  */
class TableIVBench extends SparkSpec {

  private lazy val res = TableIV.run(BenchFixtures.bundles)

  private def run(variant: String, q: String) =
    res.rows.find(r => r.variant == variant && r.queryId == q).get.run

  test("Table IV: publish the ablation grid") {
    TableFmt.publish("table4", TableIV.render(res))
    assert(res.rows.size == 16)
  }

  test("rerank never collapses a query and lifts most of them") {
    // per-query AveP with 3-5 planted targets is high-variance; require
    // strict improvement on at least 3 of 4 probes and no collapse anywhere
    // (the mean-level drop is asserted separately)
    val improved = TableIV.queries.count { q =>
      run("LOVO", q).avep > run("w/o Rerank", q).avep
    }
    assert(improved >= 3, s"rerank improved only $improved/4 probes")
    for (q <- TableIV.queries)
      assert(run("LOVO", q).avep >= run("w/o Rerank", q).avep - 0.15,
        s"$q: rerank collapsed ${run("LOVO", q).avep} vs ${run("w/o Rerank", q).avep}")
  }

  test("removing the rerank costs substantial accuracy overall (paper: every cell drops)") {
    val mean = TableIV.queries.map(q => run("LOVO", q).avep).sum / 4
    val meanAblated = TableIV.queries.map(q => run("w/o Rerank", q).avep).sum / 4
    assert(meanAblated < mean * 0.75,
      s"w/o rerank mean $meanAblated should lose >25% vs LOVO mean $mean")
  }

  test("simple queries outscore complex ones within each dataset") {
    assert(run("LOVO", "Q2.1").avep > run("LOVO", "Q2.2").avep,
      "Bellevue: Q2.1 (simple) should beat Q2.2 (relational)")
  }

  test("w/o ANNS: exhaustive fast search costs more, accuracy stays comparable") {
    for (q <- TableIV.queries) {
      val ann = run("LOVO", q)
      val bf = run("w/o ANNS", q)
      // fixed per-query costs swamp the ratio at reduced scale
      if (BenchFixtures.scale >= 1.0)
        assert(bf.fastSec > ann.fastSec * 1.4,
          s"$q: BF fast ${bf.fastSec} !>> ANN fast ${ann.fastSec}")
      assert(math.abs(bf.avep - ann.avep) < 0.35,
        s"$q: BF avep ${bf.avep} vs ANN ${ann.avep} diverge too far")
    }
  }

  test("w/o key frames: fast search slows and storage inflates ~3x (paper: 3.25x)") {
    for (q <- TableIV.queries) {
      val kf = run("LOVO", q)
      val all = run("w/o Key frame", q)
      assert(all.fastSec > kf.fastSec * 1.5,
        s"$q: all-frames fast ${all.fastSec} !> keyframe fast ${kf.fastSec}")
      assert(math.abs(all.avep - kf.avep) < 0.35,
        s"$q: accuracy should survive keyframing ($q: ${all.avep} vs ${kf.avep})")
    }
    val ratio = res.storageAllMb / res.storageKeyMb
    assert(ratio > 2.5 && ratio < 3.5, s"storage ratio $ratio (paper 3.25x)")
  }

  test("rerank latency tracks the candidate count (Q1.2 > Q1.1, Q2.2 > Q2.1)") {
    assert(run("LOVO", "Q1.2").rerankSec > run("LOVO", "Q1.1").rerankSec)
    assert(run("LOVO", "Q2.2").rerankSec > run("LOVO", "Q2.1").rerankSec)
  }
}
