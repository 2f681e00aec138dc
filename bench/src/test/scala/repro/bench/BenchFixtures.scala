package repro.bench

import repro.SparkSpec
import repro.eval.Bundles

/** The dataset bundles the bench suites share, one [[Bundles]] per JVM.
  *
  * Scale defaults to 1.0 (the paper calibration of DESIGN.md §5); set
  * REPRO_BENCH_SCALE to run a faster reduced pass.
  */
object BenchFixtures {

  val scale: Double = sys.env.getOrElse("REPRO_BENCH_SCALE", "1.0").toDouble

  lazy val bundles: Bundles = new Bundles(SparkSpec.shared, scale)
}
