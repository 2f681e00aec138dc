package lovobench

import scala.util.Random
import repro.encoder.{TextEncoder, Vocab}
import repro.eval.{QuerySpec, Workloads}
import repro.video.DatasetConfig

/** One query the benchmark client sends: its text, its k, and the planted
  * query it comes from, if any (only planted queries have ground truth).
  */
final case class QueryItem(text: String, k: Int, planted: Option[QuerySpec]) {
  def label: String = planted.map(_.id).getOrElse("keyphrase")
}

/** Seeded query generator. The seed fixes the query order, the key-phrase
  * queries and their k; the corpus itself does not depend on it.
  *
  * Queries come in rounds: every planted query of the dataset once, plus
  * `seededPerRound` key-phrase queries, shuffled. A run always finishes its
  * first round, so the quality metrics cover every planted query on every
  * seed.
  */
final class QueryGen(ds: DatasetConfig, entries: Long, seed: Long, seededPerRound: Int) {
  private val rng = new Random(seed)

  /** Table II's k range: 30 to 140 retrieved objects. */
  val KMin = 30
  val KMax = 140

  private def phrases(cat: String, values: Seq[String]): IndexedSeq[String] = {
    val wanted = values.map(Vocab.token(cat, _)).toSet
    // the shortest surface phrase of each wanted token, in lexicon order
    TextEncoder.lexicon.filter { case (_, tok) => wanted(tok) }
      .groupBy(_._2).values.map(_.minBy(_._1.length)._1).toIndexedSeq.sorted
  }

  private val planted: Seq[QuerySpec] = Workloads.forDataset(ds.name)
  private val classes = phrases(Vocab.Cls, ds.bgClasses)
  private val colours = phrases(Vocab.Col, ds.bgColors)
  private val contexts = phrases(Vocab.Ctx, ds.sceneCtx)
  private val verbs = phrases(Vocab.Act, planted.flatMap(q =>
    TextEncoder.parse(q.text).tokens.filter(Vocab.category(_) == Vocab.Act).map(Vocab.value)))
  require(classes.nonEmpty && contexts.nonEmpty && verbs.nonEmpty,
    s"${ds.name}: the lexicon covers none of its classes, contexts or verbs")

  def plantedK(q: QuerySpec): Int =
    math.min(repro.core.LovoConfig().retrievalMultiplier.toLong * q.nPos, entries).toInt.max(1)

  private def pick(xs: IndexedSeq[String]): String = xs(rng.nextInt(xs.size))

  /** A key-phrase query whose k is drawn from the `stratum`-th of
    * `seededPerRound` equal slices of [KMin, KMax]. Stratifying k keeps each
    * round's retrieval sizes spread over the whole range on every seed.
    */
  private def keyPhraseQuery(stratum: Int): QueryItem = {
    val colour = if (colours.nonEmpty && rng.nextBoolean()) pick(colours) + " " else ""
    val text = s"A $colour${pick(classes)} ${pick(verbs)} on the ${pick(contexts)}."
    val width = (KMax - KMin + 1).toDouble / seededPerRound
    val lo = KMin + (stratum * width).toInt
    val hi = KMin + ((stratum + 1) * width).toInt - 1
    val k = math.min(lo + rng.nextInt(hi - lo + 1), entries.toInt)
    QueryItem(text, k, None)
  }

  def round(): Seq[QueryItem] =
    rng.shuffle(planted.map(q => QueryItem(q.text, plantedK(q), Some(q))) ++
      (0 until seededPerRound).map(keyPhraseQuery))

  def roundSize: Int = planted.size + seededPerRound
}
