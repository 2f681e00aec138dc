package repro.encoder

/** Attribute-token vocabulary shared by the synthetic scenes, the visual
  * encoder, and the text encoder.
  *
  * A token is a `"cat:value"` string; the category prefix drives the
  * fast-search phrase split (paper §VI-A: the fast-search text encoder
  * keeps key phrases — classes, colours, attributes, scene context — and
  * drops relations, verbs, and fine positional terms, which only the
  * cross-modality rerank sees).
  */
object Vocab {

  /** Token categories. */
  val Cls  = "cls"  // object class ("car", "person", …)
  val Col  = "col"  // colour
  val Att  = "att"  // fine attribute ("white_roof", "hat", …)
  val Ctx  = "ctx"  // scene context ("road", "street", "beach", …)
  val Loc  = "loc"  // positional term ("center", "inside_car", …)
  val Rel  = "rel"  // spatial relation ("side_by_side", "next_to", …)
  val Act  = "act"  // verb/behaviour ("walking", "driving", …)

  /** Categories the fast-search text encoder keeps (key phrases). */
  val FastCategories: Set[String] = Set(Cls, Col, Att, Ctx)

  def token(cat: String, value: String): String = s"$cat:$value"
  def category(tok: String): String = tok.takeWhile(_ != ':')
  def value(tok: String): String = tok.dropWhile(_ != ':').drop(1)
  def isFast(tok: String): Boolean = FastCategories.contains(category(tok))

  /** MSCOCO-style predefined detector classes — what QA-index baselines
    * (VOCAL) and QD-search detectors (MIRIS/FiGO) can recognize.
    */
  val MscocoClasses: Set[String] = Set(
    "person", "car", "bus", "truck", "bicycle", "dog", "motorcycle",
    "boat", "bench", "umbrella")

  /** Classes outside the predefined label set (paper's "SUV" case). */
  val NovelClasses: Set[String] = Set("suv", "woman", "man", "stroller")

  val AllClasses: IndexedSeq[String] = (MscocoClasses ++ NovelClasses).toIndexedSeq.sorted

  val Colors: IndexedSeq[String] = IndexedSeq(
    "red", "white", "black", "green", "blue", "grey", "yellow",
    "silver", "light_colored", "dark", "yellow_green")

  /** Nominal pixel size (w, h) per class on the 256x192 canvas. */
  def nominalSize(cls: String): (Double, Double) = cls match {
    case "person" | "woman" | "man" => (14.0, 30.0)
    case "dog"                      => (18.0, 13.0)
    case "bicycle" | "motorcycle"   => (24.0, 17.0)
    case "car" | "suv"              => (40.0, 22.0)
    case "bus" | "truck" | "boat"   => (56.0, 26.0)
    case "stroller"                 => (16.0, 18.0)
    case _                          => (26.0, 20.0)
  }
}
