package repro.testkit

import org.scalacheck.Gen
import repro.SparkSpec
import repro.encoder.{TextEncoder, Vocab}
import repro.eval.{Bundle, Harness}
import repro.util.Rng
import repro.video.DatasetConfig
import repro.vit.{BBox, PatchRec}

/** Shared small-scale fixtures, built once per test JVM (the build uses
  * one forked JVM for the whole run, so these lazies amortize across
  * suites).
  */
object Fixtures {

  /** Cityscapes at 4% scale: ~59 keyframes, ~2.8k stored vectors. */
  lazy val cityscapes: Bundle =
    Harness.bundle(SparkSpec.shared, "cityscapes", scale = 0.04)

  /** Bellevue at 3% scale. */
  lazy val bellevue: Bundle =
    Harness.bundle(SparkSpec.shared, "bellevue", scale = 0.03)

  /** The shortest surface phrase of each of the category's tokens among
    * `values`, in lexicon order.
    */
  private def phrases(cat: String, values: Seq[String]): IndexedSeq[String] = {
    val wanted = values.map(Vocab.token(cat, _)).toSet
    TextEncoder.lexicon.filter { case (_, tok) => wanted(tok) }
      .groupBy(_._2).values.map(_.minBy(_._1.length)._1).toIndexedSeq.sorted
  }

  /** Random key-phrase queries over a dataset: a class, an optional colour
    * and a scene context of the dataset, with k drawn from Table II's range
    * of 30 to 140.
    */
  def keyPhraseQueries(ds: DatasetConfig): Gen[(String, Int)] =
    for {
      colour <- Gen.option(Gen.oneOf(phrases(Vocab.Col, ds.bgColors)))
      cls <- Gen.oneOf(phrases(Vocab.Cls, ds.bgClasses))
      ctx <- Gen.oneOf(phrases(Vocab.Ctx, ds.sceneCtx))
      k <- Gen.choose(30, 140)
    } yield (s"A ${colour.fold("")(_ + " ")}$cls on the $ctx.", k)

  /** Synthetic clustered patch records: `perCluster` noisy copies of each
    * of `nClusters` unit centres — ground truth for recall tests. Each
    * record's box is its own, with four distinct fractional coordinates,
    * so a test sees a box that lost or swapped a coordinate.
    */
  def clusteredPatches(nClusters: Int, perCluster: Int, dim: Int,
                       noise: Double = 0.15): Seq[PatchRec] = {
    val centres = (0 until nClusters).map(c =>
      repro.util.VecOps.normalize(
        Array.tabulate(dim)(j => Rng.gaussian(Rng.mix(77L, c.toLong), j.toLong).toFloat)))
    for {
      c <- 0 until nClusters
      i <- 0 until perCluster
    } yield {
      val id = (c * perCluster + i).toLong
      val v = repro.util.VecOps.normalize(Array.tabulate(dim)(j =>
        (centres(c)(j) + noise * Rng.gaussian(Rng.mix(id, 5L), j.toLong)).toFloat))
      PatchRec(id, id / 4, c.toLong, isObject = true, 0, 0,
        px = 0.125 + id % 17, py = 0.375 + id % 13 + 20, pw = 8.5 + id % 5, ph = 16.25 + id % 7, v)
    }
  }

  /** The predicted box of a patch record. */
  def box(p: PatchRec): BBox = BBox(p.px, p.py, p.pw, p.ph)

  def clusterCentre(nClusters: Int, dim: Int, c: Int): Array[Float] =
    repro.util.VecOps.normalize(
      Array.tabulate(dim)(j => Rng.gaussian(Rng.mix(77L, c.toLong), j.toLong).toFloat))
}
