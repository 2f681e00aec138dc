package repro.eval.tables

import repro.core.AnnVariant
import repro.eval.{Bundles, Harness, LovoRun}

/** Table IV — ablation study on Cityscapes (Q1.1, Q1.2) and Bellevue
  * (Q2.1, Q2.2): query accuracy (AveP) and latency (s) for full LOVO,
  * w/o cross-modality rerank, w/o ANNS (exhaustive fast search), and
  * w/o key-frame selection (index every raw frame). Also reports the
  * keyframe-vs-full storage footprint quoted in §VII-E.
  */
object TableIV {

  val queries = Seq("Q1.1", "Q1.2", "Q2.1", "Q2.2")

  /** Paper numbers: variant -> query -> (AveP, fastSearch s, rerank s). */
  val paper: Map[String, Map[String, (Double, Double, Double)]] = Map(
    "LOVO" -> Map(
      "Q1.1" -> (0.91, 0.06, 23.2), "Q1.2" -> (0.86, 0.09, 61.8),
      "Q2.1" -> (0.53, 0.03, 11.5), "Q2.2" -> (0.29, 0.07, 19.9)),
    "w/o Rerank" -> Map(
      "Q1.1" -> (0.80, 0.08, Double.NaN), "Q1.2" -> (0.75, 0.09, Double.NaN),
      "Q2.1" -> (0.44, 0.03, Double.NaN), "Q2.2" -> (0.09, 0.03, Double.NaN)),
    "w/o ANNS" -> Map(
      "Q1.1" -> (0.80, 0.15, 26.9), "Q1.2" -> (0.90, 0.35, 66.6),
      "Q2.1" -> (0.49, 0.05, 11.8), "Q2.2" -> (0.23, 0.11, 21.2)),
    "w/o Key frame" -> Map(
      "Q1.1" -> (0.90, 0.52, 23.4), "Q1.2" -> (0.88, 0.71, 61.1),
      "Q2.1" -> (0.58, 0.44, 12.8), "Q2.2" -> (0.28, 0.70, 28.8)),
  )

  /** Paper §VII-E storage comparison (MB): with vs without keyframes. */
  val paperStorageMb: (Double, Double) = (2453.0, 7976.0)

  final case class Row(variant: String, queryId: String, run: LovoRun)

  final case class Result(rows: Seq[Row], storageKeyMb: Double, storageAllMb: Double)

  def run(bundles: Bundles): Result = {
    val datasets = Seq("cityscapes", "bellevue")
    def ds(q: String) = if (q.startsWith("Q1")) "cityscapes" else "bellevue"

    val rows = queries.flatMap { q =>
      val b = bundles(ds(q))
      Seq(
        Row("LOVO", q, Harness.runLovo(b, q, AnnVariant.IvfPq, useRerank = true)),
        Row("w/o Rerank", q, Harness.runLovo(b, q, AnnVariant.IvfPq, useRerank = false)),
        Row("w/o ANNS", q, Harness.runLovo(b, q, AnnVariant.Bf, useRerank = true)),
        Row("w/o Key frame", q,
          Harness.runLovo(bundles(ds(q), keyOnly = false), q, AnnVariant.IvfPq, useRerank = true)))
    }
    def storageMb(keyOnly: Boolean) =
      datasets.map(bundles(_, keyOnly).build.counts.storageBytes).sum / 1e6
    Result(rows, storageMb(keyOnly = true), storageMb(keyOnly = false))
  }

  def render(res: Result): String = {
    val variants = Seq("LOVO", "w/o Rerank", "w/o ANNS", "w/o Key frame")
    val body = for (v <- variants; metric <- Seq("AveP", "Fast Search", "Rerank")) yield {
      val cells = queries.map { q =>
        val r = res.rows.find(x => x.variant == v && x.queryId == q).get.run
        val p = paper(v)(q)
        metric match {
          case "AveP"        => s"${TableFmt.f2(r.avep)} (paper ${TableFmt.f2(p._1)})"
          case "Fast Search" => s"${TableFmt.f2(r.fastSec)} (paper ${TableFmt.f2(p._2)})"
          case _ =>
            if (v == "w/o Rerank") "-"
            else s"${TableFmt.f1(r.rerankSec)} (paper ${TableFmt.f1(p._3)})"
        }
      }
      Seq(v, metric) ++ cells
    }
    val table = TableFmt.render(
      "Table IV: ablations — AveP and latency (s), measured (paper)",
      Seq("Variant", "Metric") ++ queries, body)
    val storage =
      f"Storage (cityscapes+bellevue index): keyframe=${res.storageKeyMb}%.1f MB, " +
      f"all-frames=${res.storageAllMb}%.1f MB, ratio=${res.storageAllMb / res.storageKeyMb}%.2fx " +
      f"(paper: ${paperStorageMb._1}%.0f MB vs ${paperStorageMb._2}%.0f MB, " +
      f"ratio ${paperStorageMb._2 / paperStorageMb._1}%.2fx)"
    table + "\n" + storage
  }
}
