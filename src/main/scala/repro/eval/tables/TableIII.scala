package repro.eval.tables

import repro.core.AnnVariant
import repro.eval.{Bundles, Harness}

/** Table III — execution time (s) of ZELDA, UMT, VISA, LOVO across the
  * four datasets, split into video processing / query search / total.
  * LOVO's search time is averaged over the dataset's four queries (the
  * paper reports the per-dataset average of a single query's cost).
  */
object TableIII {

  final case class Row(method: String, dataset: String,
                       processing: Double, search: Double) {
    def total: Double = processing + search
  }

  /** Paper's published numbers: (method, dataset) -> (proc, search, total). */
  val paper: Map[(String, String), (Double, Double, Double)] = Map(
    ("ZELDA", "cityscapes") -> (141.0, 4.88, 146.0),
    ("ZELDA", "bellevue") -> (215.0, 3.98, 218.0),
    ("ZELDA", "qvhighlights") -> (141.0, 3.32, 145.0),
    ("ZELDA", "beach") -> (56.5, 4.21, 60.7),
    ("UMT", "cityscapes") -> (29.3, 104.0, 134.0),
    ("UMT", "bellevue") -> (44.4, 122.0, 167.0),
    ("UMT", "qvhighlights") -> (17.7, 54.7, 72.4),
    ("UMT", "beach") -> (42.8, 93.8, 137.0),
    ("VISA", "cityscapes") -> (326.0, 1564.0, 1890.0),
    ("VISA", "bellevue") -> (613.0, 430.0, 1044.0),
    ("VISA", "qvhighlights") -> (744.0, 346.0, 1090.0),
    ("VISA", "beach") -> (316.0, 194.0, 510.0),
    ("LOVO", "cityscapes") -> (118.0, 26.7, 145.0),
    ("LOVO", "bellevue") -> (192.0, 26.8, 220.0),
    ("LOVO", "qvhighlights") -> (117.0, 23.2, 152.0),
    ("LOVO", "beach") -> (155.2, 25.3, 185.0),
  )

  val datasets = Seq("cityscapes", "bellevue", "qvhighlights", "beach")
  val methods = Seq("ZELDA", "UMT", "VISA", "LOVO")

  def run(bundles: Bundles): Seq[Row] =
    datasets.flatMap { ds =>
      val b = bundles(ds)
      val queries = b.queries.map(_.id)
      // Baselines: modeled times are query-independent; probe with the
      // first query so the full retrieval path actually executes.
      val probes = Seq("ZELDA", "UMT", "VISA").map { m =>
        val r = Harness.runBaseline(b, m, queries.head)
        Row(m, ds, r.processingSec, r.searchSec)
      }
      val lovoRuns = queries.map(q => Harness.runLovo(b, q, AnnVariant.IvfPq, useRerank = true))
      val lovo = Row("LOVO", ds,
        lovoRuns.map(_.processingSec).sum / lovoRuns.size,
        lovoRuns.map(_.searchSec).sum / lovoRuns.size)
      probes :+ lovo
    }

  def render(rows: Seq[Row]): String = {
    val body = for (m <- methods; phase <- Seq("Processing", "Search", "Total")) yield {
      val cells = datasets.map { ds =>
        val r = rows.find(x => x.method == m && x.dataset == ds).get
        val v = phase match {
          case "Processing" => r.processing
          case "Search"     => r.search
          case _            => r.total
        }
        val p = paper((m, ds))
        val pv = phase match { case "Processing" => p._1; case "Search" => p._2; case _ => p._3 }
        s"${TableFmt.f1(v)} (paper ${TableFmt.f1(pv)})"
      }
      Seq(m, phase) ++ cells
    }
    TableFmt.render("Table III: execution time (s), measured (paper)",
      Seq("Method", "Phase") ++ datasets, body)
  }
}
