package repro.video

import org.apache.spark.rdd.RDD
import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.eval.Workloads
import repro.rerank.{CrossModalRerank, RerankParams}
import repro.testkit.Fixtures

class FrameBlockSpec extends SparkSpec {

  /** The selected frames of a dataset, as `Lovo.build` selects them. */
  private def selected(ds: DatasetConfig) =
    Keyframes.select(SynthVideo.frames(spark, ds, Workloads.plantSpecsFor(ds.name)))

  /** Each partition's decoded frames, in partition order. */
  private def decodedPartitions(blocks: RDD[FrameBlock]): Seq[Seq[FrameRec]] =
    blocks.mapPartitions(bs => Iterator(bs.flatMap(_.frames).toSeq)).collect().toSeq

  /** The blocks decode to the selected frames field for field, object
    * order and token order included, partition by partition as a cache of
    * the selected frames holds them; every block's frame ids ascend
    * strictly. Returns the number of blocks.
    */
  private def assertRoundTrip(blocks: RDD[FrameBlock], ds: DatasetConfig): Long = {
    val cached = selected(ds).cache()
    try {
      val expected = cached.rdd.glom().collect().map(_.toSeq).toSeq
      assert(expected.flatten.map(_.frameId).distinct.size == ds.totalRawFrames)
      assert(decodedPartitions(blocks) == expected)
      assert(blocks.collect().forall(b => b.frameIds.sliding(2).forall(w => w.length < 2 || w(0) < w(1))))
      blocks.count()
    } finally cached.unpersist(blocking = true)
  }

  test("the build's frame blocks decode to the selected frames of one video, in the cache's partitions") {
    val b = Fixtures.cityscapes
    assert(b.build.dataset.nVideos == 1)
    assert(assertRoundTrip(b.build.frameBlocks, b.build.dataset) == 1)
  }

  test("frame blocks of fifteen videos decode to the selected frames, in several blocks") {
    val ds = Datasets.qvhighlights.scaled(0.1)
    assert(ds.nVideos == 15)
    assert(assertRoundTrip(FrameBlock.blocks(selected(ds)), ds) > 1)
  }

  test("the build's frames view has the blocks' partitions and order") {
    val build = Fixtures.cityscapes.build
    assert(build.frames.rdd.getNumPartitions == build.frameBlocks.getNumPartitions)
    assert(build.frames.collect().toSeq == decodedPartitions(build.frameBlocks).flatten)
  }

  test("a frame with no objects decodes to empty objects and scores -inf") {
    val empty = FrameRec("t", 3L, 7L, 2L, 0.25, isKey = true, objects = Seq.empty)
    val full = FrameRec("u", 3L, 8L, 3L, 0.75, isKey = false,
      objects = Seq(ObjRec(5L, Seq("cls:car", "col:red"), 1.5, 2.5, 3.5, 4.5), ObjRec(6L, Seq.empty, 0, 0, 1, 1)))
    val block = FrameBlock.pack(Array(empty, full))
    assert(block.frame(0) == empty && block.frame(0).objects.isEmpty)
    assert(block.frame(1) == full)
    assert(block.indexOf(7L) == 0 && block.indexOf(8L) == 1 && block.indexOf(9L) < 0)
    val parsed = TextEncoder.parse("A red car on the road.")
    val textTokens = TextEncoder.rerankTokenEmbeddings(parsed).toArray
    assert(CrossModalRerank.rerankFrame(block.frame(0), textTokens, RerankParams())._1.isNegInfinity)
  }

  test("pack rejects frame ids that do not ascend strictly") {
    val f = FrameRec("t", 0L, 4L, 0L, 0.0, isKey = false, objects = Seq.empty)
    intercept[IllegalArgumentException](FrameBlock.pack(Array(f, f.copy(frameId = 3L))))
    intercept[IllegalArgumentException](FrameBlock.pack(Array(f, f)))
  }
}
