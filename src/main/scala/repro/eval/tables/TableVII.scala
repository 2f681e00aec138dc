package repro.eval.tables

import repro.core.AnnVariant
import repro.eval.{Bundles, Harness, LovoRun}

/** Table VII — LOVO on the ActivityNet-QA extension workload (Table VI
  * queries EQ1–EQ4): AveP, search and total time.
  */
object TableVII {

  val queries = Seq("EQ1", "EQ2", "EQ3", "EQ4")

  /** Paper numbers: query -> (AveP, search s, total s). */
  val paper: Map[String, (Double, Double, Double)] = Map(
    "EQ1" -> (0.99, 127.92, 187.09),
    "EQ2" -> (0.75, 131.09, 190.26),
    "EQ3" -> (0.72, 130.61, 189.78),
    "EQ4" -> (0.74, 130.90, 190.07))

  final case class Row(queryId: String, run: LovoRun)

  def run(bundles: Bundles): Seq[Row] = {
    val b = bundles("activitynet")
    queries.map(q => Row(q, Harness.runLovo(b, q, AnnVariant.IvfPq, useRerank = true)))
  }

  def render(rows: Seq[Row]): String = {
    val body = Seq("AveP", "Search", "Total").map { metric =>
      val cells = queries.map { q =>
        val r = rows.find(_.queryId == q).get.run
        val p = paper(q)
        metric match {
          case "AveP"   => s"${TableFmt.f2(r.avep)} (paper ${TableFmt.f2(p._1)})"
          case "Search" => s"${TableFmt.f1(r.searchSec)} (paper ${TableFmt.f1(p._2)})"
          case _        => s"${TableFmt.f1(r.totalSec)} (paper ${TableFmt.f1(p._3)})"
        }
      }
      Seq("LOVO", metric) ++ cells
    }
    TableFmt.render("Table VII: LOVO on ActivityNet-QA, measured (paper)",
      Seq("Method", "Metric") ++ queries, body)
  }
}
