package repro.jobs

import repro.eval.Bundles
import repro.eval.tables._

/** `spark-submit --class repro.jobs.TablesJob repro.jar [scale] [table1 … table7]`
  * — publishes the named evaluation tables (all seven when none is named)
  * at a scale factor (default 1.0, the paper calibration; e.g. 0.1 for a
  * quick pass). Every table reads one [[Bundles]], so each dataset is
  * built once per run.
  */
object TablesJob {

  val tables: Seq[(String, Bundles => String)] = Seq(
    "table1" -> (bs => TableI.render(TableI.run(bs))),
    "table2" -> (_ => TableII.render(TableII.run())),
    "table3" -> (bs => TableIII.render(TableIII.run(bs))),
    "table4" -> (bs => TableIV.render(TableIV.run(bs))),
    "table5" -> (bs => TableV.render(TableV.run(bs))),
    "table6" -> (_ => TableVI.render(TableVI.run())),
    "table7" -> (bs => TableVII.render(TableVII.run(bs))))

  /** The scale and the table names of `args`; throws
    * IllegalArgumentException on a scale that is not positive and finite
    * or on a name outside `tables`.
    */
  def parse(args: Array[String]): (Double, Seq[String]) = {
    val scale = args.headOption.flatMap(_.toDoubleOption)
    val names = (if (scale.isDefined) args.tail else args).toSeq
    scale.foreach(s =>
      require(s > 0 && !s.isInfinite, s"scale must be positive and finite, got $s"))
    val unknown = names.filterNot(n => tables.exists(_._1 == n))
    require(unknown.isEmpty,
      s"unknown tables ${unknown.mkString(", ")}; expected among ${tables.map(_._1).mkString(" ")}")
    (scale.getOrElse(1.0), if (names.isEmpty) tables.map(_._1) else names)
  }

  def main(args: Array[String]): Unit = {
    val (scale, names) = parse(args)
    val spark = JobSession.spark("lovo-tables")
    val bundles = new Bundles(spark, scale)
    for ((name, table) <- tables if names.contains(name))
      TableFmt.publish(name, table(bundles))
    spark.stop()
  }
}
