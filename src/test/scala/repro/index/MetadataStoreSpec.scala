package repro.index

import repro.{Oracle, SparkSpec}
import repro.testkit.{CachedStorage, Fixtures, SparkWork}

class MetadataStoreSpec extends SparkSpec {

  private lazy val patches = {
    import spark.implicits._
    spark.createDataset(Fixtures.clusteredPatches(3, 40, 32)).cache()
  }
  private lazy val meta = MetadataStore.build(patches)

  test("one metadata row per patch") {
    assert(meta.count() == patches.count())
  }

  test("build returns a store with every partition loaded, in one narrow job") {
    import spark.implicits._
    val fresh = spark.createDataset(Fixtures.clusteredPatches(2, 30, 32))
    val (store, work) = SparkWork.during(spark.sparkContext)(MetadataStore.build(fresh))
    assert(work.jobs == 1 && work.shuffleStages == 0, work.toString)
    assert(work.sqlExecutions == 1 && work.jobsOutsideSql == 0, work.toString)
    val id = CachedStorage.rddOf(store)
    val cached = CachedStorage.list(spark.sparkContext).filter(r => id.contains(r.id))
    assert(cached.size == 1 && cached.head.loaded, s"$id: $cached")
    store.unpersist(blocking = true)
  }

  test("resolve preserves hit order and attaches the right box") {
    val sample = patches.take(5)
    val hits = sample.zipWithIndex.map { case (p, i) =>
      SearchHit(p.patchId, p.frameId, 10.0 - i)
    }.toSeq
    val resolved = MetadataStore.resolve(meta, hits)
    assert(resolved.map(_.patchId) == hits.map(_.patchId))
    assert(resolved.map(_.score) == hits.map(_.score))
    for ((c, p) <- resolved.zip(sample)) {
      assert(c.frameId == p.frameId)
      assert(c.box.x == p.px && c.box.y == p.py && c.box.w == p.pw && c.box.h == p.ph)
    }
  }

  test("unknown patch ids are silently dropped") {
    val resolved = MetadataStore.resolve(meta, Seq(SearchHit(-999L, 0L, 1.0)))
    assert(resolved.isEmpty)
  }

  test("resolve of empty hits is empty without Spark work") {
    assert(MetadataStore.resolve(meta, Seq.empty).isEmpty)
  }

  test("resolve finds columns by name, not by case-class field position") {
    import spark.implicits._
    val reordered = meta.select(meta.columns.reverse.map(meta(_)).toIndexedSeq: _*).as[PatchMeta].cache()
    assert(reordered.columns.toSeq != meta.columns.toSeq)
    val hits = patches.take(9).zipWithIndex.map { case (p, i) => SearchHit(p.patchId, p.frameId, 5.0 - i) }.toSeq
    val expected = MetadataStore.resolve(meta, hits)
    assert(expected.size == hits.size)
    assert(MetadataStore.resolve(reordered, hits) == expected)
  }

  test("the metadata equi-join matches DuckDB (oracle)") {
    // MetadataStore.resolve against a SQL join of the hits with the store.
    import spark.implicits._
    val sample = patches.take(7)
    // Descending scores; an unknown id, then a repeat of a known id.
    val hits = (sample.zipWithIndex.map { case (p, i) => SearchHit(p.patchId, p.frameId, 9.0 - i) } ++
      Seq(SearchHit(-999L, 0L, 1.5), SearchHit(sample(2).patchId, sample(2).frameId, 1.0))).toSeq
    val resolved = MetadataStore.resolve(meta, hits)
    assert(resolved.map(_.patchId) == hits.map(_.patchId).filter(_ != -999L),
      "one candidate per known hit, in hit order")
    val got = resolved.map(c => (c.patchId, c.frameId, c.box.x, c.box.y, c.box.w, c.box.h, c.score))
      .toDF("patchId", "frameId", "px", "py", "pw", "ph", "score")
    def asText(df: org.apache.spark.sql.DataFrame) =
      df.select(df.columns.map(c => df(c).cast("string") as c).toIndexedSeq: _*)
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(h.patchId AS BIGINT) AS patchId, CAST(m.frameId AS BIGINT) AS frameId,
        |       CAST(m.px AS DOUBLE) AS px, CAST(m.py AS DOUBLE) AS py,
        |       CAST(m.pw AS DOUBLE) AS pw, CAST(m.ph AS DOUBLE) AS ph,
        |       CAST(h.score AS DOUBLE) AS score
        |FROM hits h JOIN meta m ON m.patchId = h.patchId""".stripMargin,
      "meta" -> asText(meta.toDF.select("patchId", "frameId", "px", "py", "pw", "ph")),
      "hits" -> asText(hits.map(h => (h.patchId, h.score)).toDF("patchId", "score")))
  }
}
