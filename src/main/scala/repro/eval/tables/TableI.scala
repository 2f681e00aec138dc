package repro.eval.tables

import repro.eval.{Bundles, CostModel, Harness}

/** Table I — capability comparison across method families, derived from
  * measured behaviour on Bellevue probes:
  *
  *   - QA-index      -> VOCAL  (prebuilt class index)
  *   - QD-search     -> FiGO   (per-query detector ensemble)
  *   - Vision-based  -> DINO   (open-vocabulary cross-modal detector,
  *                              query-dependent full scan — the family of
  *                              the paper's Fig 2)
  *
  * Query-support cells come from measured AveP on a simple predefined
  * query ("car"), a normal descriptive query ("red car in road", Fig 2)
  * and a complex relational query (Q2.2). The scalability / preprocessing
  * / efficiency / accuracy rows are classed from the cost model's
  * structure: which phase scales with the corpus, at what per-frame
  * constant, and whether a heavyweight vision-language model sits on the
  * query path.
  */
object TableI {

  val families = Seq("QA-index", "QD-search", "Vision-based")
  private val methodOf = Map(
    "QA-index" -> "VOCAL", "QD-search" -> "FiGO", "Vision-based" -> "DINO")
  /** A large vision-language model on the per-query path (paper: GPU
    * footprint makes the family non-scalable regardless of throughput).
    */
  private val heavyModel = Map(
    "QA-index" -> false, "QD-search" -> false, "Vision-based" -> true)

  val capabilities = Seq(
    "Predefined Classes", "Simple Descriptions", "Complex Queries",
    "Scalability", "Video Preprocessing", "Execution Efficiency", "Query Accuracy")

  /** Paper's Table I. */
  val paper: Map[(String, String), String] = Map(
    ("Predefined Classes", "QA-index") -> "Yes",
    ("Predefined Classes", "QD-search") -> "Yes",
    ("Predefined Classes", "Vision-based") -> "Yes",
    ("Simple Descriptions", "QA-index") -> "No",
    ("Simple Descriptions", "QD-search") -> "Yes",
    ("Simple Descriptions", "Vision-based") -> "Yes",
    ("Complex Queries", "QA-index") -> "No",
    ("Complex Queries", "QD-search") -> "No",
    ("Complex Queries", "Vision-based") -> "Yes",
    ("Scalability", "QA-index") -> "Yes",
    ("Scalability", "QD-search") -> "Moderate",
    ("Scalability", "Vision-based") -> "No",
    ("Video Preprocessing", "QA-index") -> "Extensive",
    ("Video Preprocessing", "QD-search") -> "Minimal",
    ("Video Preprocessing", "Vision-based") -> "Moderate",
    ("Execution Efficiency", "QA-index") -> "High",
    ("Execution Efficiency", "QD-search") -> "Low",
    ("Execution Efficiency", "Vision-based") -> "Low",
    ("Query Accuracy", "QA-index") -> "High",
    ("Query Accuracy", "QD-search") -> "Moderate",
    ("Query Accuracy", "Vision-based") -> "High")

  /** A family supports a query class when its AveP clears an absolute
    * floor (0.20) AND 15% of the best family's AveP on that class (a family
    * free-riding on class priors — VOCAL returning every car for "red
    * car" — scores far below the best and counts as unsupporting).
    */
  val AbsoluteFloor = 0.20
  val RelativeFraction = 0.15

  final case class Result(
      avep: Map[(String, String), Double], // (family, complexity) -> AveP
      derived: Map[(String, String), String]) // (capability, family) -> class

  def run(bundles: Bundles): Result = {
    val b = bundles("bellevue")
    // The paper's Fig 2 probe set: an MSCOCO class, a novel-feature
    // description ("red car in road"), and the full relational sentence.
    val probes = Seq(
      ("simple", "TI-simple", "car"),
      ("normal", "TI-normal", "a red car in the road"),
      ("complex", "Q2.2",
        "A red car side by side with another car, both positioned in the center of the road."))

    val avep = (for {
      fam <- families
      (cx, qid, text) <- probes
    } yield {
      val gt = Harness.groundTruthFor(b, text)
      val r = Harness.runBaselineText(b, methodOf(fam), qid, text, gt)
      (fam, cx) -> r.avep
    }).toMap

    def support(fam: String, cx: String): Boolean = {
      val best = families.map(f => avep((f, cx))).max
      avep((fam, cx)) >= math.max(AbsoluteFloor, RelativeFraction * best)
    }
    def supportCell(fam: String, cx: String): String = if (support(fam, cx)) "Yes" else "No"

    val c = b.build.counts
    // Per-query search cost and one-time preprocessing cost, per raw frame.
    val searchPerFrame = Map(
      "QA-index" -> CostModel.tVocalSearch / c.rawFrames,
      "QD-search" -> CostModel.tFigoPerRaw,
      "Vision-based" -> CostModel.dinoSearch(c.keyFrames) / c.rawFrames)
    val prepPerFrame = Map(
      "QA-index" -> CostModel.vocalIndexing(c.keyFrames) / c.rawFrames,
      "QD-search" -> 0.0,
      "Vision-based" -> CostModel.tDinoPerRaw)

    /** O(1) query -> Yes; per-frame query work with a heavyweight
      * vision-language model -> No; lightweight per-frame work -> Moderate.
      */
    def scalability(fam: String): String =
      if (searchPerFrame(fam) < 1e-3) "Yes"
      else if (heavyModel(fam)) "No"
      else "Moderate"
    def preprocessing(fam: String): String =
      if (prepPerFrame(fam) >= 0.1) "Extensive"
      else if (prepPerFrame(fam) <= 1e-6) "Minimal" else "Moderate"
    def efficiency(fam: String): String =
      if (searchPerFrame(fam) * c.rawFrames <= 10.0) "High" else "Low"
    /** Mean AveP over the query classes the family supports. */
    def accuracy(fam: String): String = {
      val supported = Seq("simple", "normal", "complex")
        .filter(cx => support(fam, cx)).map(cx => avep((fam, cx)))
      val mean = if (supported.isEmpty) 0.0 else supported.sum / supported.size
      if (mean >= 0.7) "High" else "Moderate"
    }

    val derived = (for (fam <- families) yield Seq(
      ("Predefined Classes", fam) -> supportCell(fam, "simple"),
      ("Simple Descriptions", fam) -> supportCell(fam, "normal"),
      ("Complex Queries", fam) -> supportCell(fam, "complex"),
      ("Scalability", fam) -> scalability(fam),
      ("Video Preprocessing", fam) -> preprocessing(fam),
      ("Execution Efficiency", fam) -> efficiency(fam),
      ("Query Accuracy", fam) -> accuracy(fam))).flatten.toMap

    Result(avep, derived)
  }

  def render(res: Result): String = {
    val capTable = TableFmt.render(
      "Table I: capabilities, derived (paper)",
      "Capability" +: families,
      capabilities.map(cap =>
        cap +: families.map(f => s"${res.derived((cap, f))} (paper ${paper((cap, f))})")))
    val avepTable = TableFmt.render(
      "Table I basis: measured AveP per probe query",
      Seq("Family", "simple", "normal", "complex"),
      families.map(f => Seq(f,
        TableFmt.f2(res.avep((f, "simple"))),
        TableFmt.f2(res.avep((f, "normal"))),
        TableFmt.f2(res.avep((f, "complex"))))))
    capTable + "\n\n" + avepTable
  }
}
