package lovobench

/** Order statistics of a run's latency samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** The highest nearest-rank percentile with at least ten samples above
    * it, as (percentile, value). Below 21 samples no percentile above the
    * median qualifies, so the median is reported and labelled p50.
    */
  def tail(xs: Seq[Double]): (Int, Double) = {
    val n = xs.size
    if (n < 21) (50, median(xs))
    else {
      val s = xs.sorted
      val rank = n - 10 // 1-based nearest rank; n - rank = 10 samples lie above
      (100 * rank / n, s(rank - 1))
    }
  }

  /** Share of the exact top-k that an approximate top-k recovered. */
  def recall(approx: Seq[Long], exact: Seq[Long]): Double =
    if (exact.isEmpty) 1.0 else approx.toSet.intersect(exact.toSet).size.toDouble / exact.size
}
