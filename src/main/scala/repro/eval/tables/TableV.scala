package repro.eval.tables

import repro.core.AnnVariant
import repro.eval.{Bundles, Harness, LovoRun}

/** Table V — LOVO across ANN variants (BF, IVF-PQ, HNSW) on Cityscapes
  * Q1.1–Q1.4: AveP, search time (fast search + rerank) and total time
  * (processing + indexing + search).
  *
  * Note on "Total": the paper's Table V totals (~260–340 s) are not
  * consistent with its own Table III total for the same dataset (145 s);
  * we report processing + indexing + search and compare shapes only.
  */
object TableV {

  val queries = Seq("Q1.1", "Q1.2", "Q1.3", "Q1.4")
  val variants: Seq[AnnVariant] = Seq(AnnVariant.Bf, AnnVariant.IvfPq, AnnVariant.Hnsw)

  /** Paper numbers: variant -> query -> (AveP, search s, total s). */
  val paper: Map[String, Map[String, (Double, Double, Double)]] = Map(
    "BF" -> Map(
      "Q1.1" -> (0.80, 27.05, 277.31), "Q1.2" -> (0.90, 66.79, 317.05),
      "Q1.3" -> (0.83, 27.34, 277.60), "Q1.4" -> (0.50, 89.47, 339.38)),
    "IVF-PQ" -> Map(
      "Q1.1" -> (0.91, 23.80, 260.42), "Q1.2" -> (0.86, 62.70, 299.32),
      "Q1.3" -> (0.75, 24.92, 261.54), "Q1.4" -> (0.50, 90.12, 326.74)),
    "HNSW" -> Map(
      "Q1.1" -> (0.80, 24.08, 275.49), "Q1.2" -> (0.88, 66.11, 317.52),
      "Q1.3" -> (0.78, 23.49, 274.90), "Q1.4" -> (0.50, 88.08, 339.49)),
  )

  final case class Row(variant: String, queryId: String, run: LovoRun)

  def run(bundles: Bundles): Seq[Row] = {
    val b = bundles("cityscapes")
    for (v <- variants; q <- queries)
      yield Row(AnnVariant.name(v), q, Harness.runLovo(b, q, v, useRerank = true))
  }

  def render(rows: Seq[Row]): String = {
    val body = for (v <- variants.map(AnnVariant.name);
                    metric <- Seq("AveP", "Search", "Total")) yield {
      val cells = queries.map { q =>
        val r = rows.find(x => x.variant == v && x.queryId == q).get.run
        val p = paper(v)(q)
        metric match {
          case "AveP"   => s"${TableFmt.f2(r.avep)} (paper ${TableFmt.f2(p._1)})"
          case "Search" => s"${TableFmt.f1(r.searchSec)} (paper ${TableFmt.f1(p._2)})"
          case _        => s"${TableFmt.f1(r.totalSec)} (paper ${TableFmt.f1(p._3)})"
        }
      }
      Seq(s"LOVO($v)", metric) ++ cells
    }
    TableFmt.render("Table V: ANN variants on Cityscapes, measured (paper)",
      Seq("Variant", "Metric") ++ queries, body)
  }
}
