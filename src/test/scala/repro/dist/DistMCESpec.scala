package repro.dist

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalGraph}
import repro.mce.{Engine, MceConfig, RefBK}

/** The Spark-distributed enumeration must match the sequential engine (and
  * hence the plain-BK reference) exactly — counts, cliques, and statistics.
  */
class DistMCESpec extends SparkSpec {

  private def collectDist(g: LocalGraph, cfg: MceConfig): Vector[Vector[Int]] = {
    val (df, _) = DistMCE.runCollect(spark, g, cfg)
    df.collect()
      .map(_.getSeq[Int](0).toVector)
      .toVector
      .sortBy(_.mkString(","))
  }

  test("distributed HBBMC++ equals reference on a random graph") {
    val g = GraphGen.randomGnp(40, 0.25, 21)
    assert(collectDist(g, MceConfig.hbbmcPP) == RefBK.enumerate(g))
  }

  test("distributed RDegen equals reference") {
    val g = GraphGen.randomGnp(35, 0.3, 22)
    assert(collectDist(g, MceConfig.rDegen) == RefBK.enumerate(g))
  }

  test("distributed EBBMC equals reference") {
    val g = GraphGen.randomGnp(30, 0.3, 23)
    assert(collectDist(g, MceConfig.ebbmc) == RefBK.enumerate(g))
  }

  test("count-only run matches collect run") {
    val g = GraphGen.generate(GraphGen.DatasetConfig("T", "t", 300, 3, 20, 5, 10, 0, 24))
    val stats = DistMCE.run(spark, g, MceConfig.hbbmcPP)
    val (_, statsCollect) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)
    assert(stats == statsCollect) // every MceStats field
    assert(stats.level1Branches == Engine.collectLocal(g, MceConfig.hbbmcPP)._2.level1Branches)
  }

  test("distributed equals sequential on a mid-size social graph") {
    val g = GraphGen.generate(GraphGen.DatasetConfig("T", "t", 600, 3, 40, 5, 12, 0, 25))
    val distStats = DistMCE.run(spark, g, MceConfig.hbbmcPP)
    val (_, localStats) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    assert(distStats.cliques == localStats.cliques)
    assert(distStats.maxSize == localStats.maxSize)
    assert(distStats.sumSize == localStats.sumSize)
    // recursion work is identical regardless of partitioning
    assert(distStats.calls == localStats.calls)
  }

  test("special graphs through the distributed path") {
    for (g <- Seq(LocalGraph.empty(5), LocalGraph.complete(6), TestGraphs.moonMoser(3),
                  TestGraphs.path(7), TestGraphs.star(6))) {
      assert(collectDist(g, MceConfig.hbbmcPP) == RefBK.enumerate(g))
    }
  }

  test("parallelism does not change the result") {
    val g = GraphGen.randomGnp(45, 0.25, 26)
    val want = RefBK.enumerate(g)
    for (par <- Seq(1, 2, 7, 64)) {
      val (df, _) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP, parallelism = par)
      val got = df.collect().map(_.getSeq[Int](0).toVector).toVector.sortBy(_.mkString(","))
      assert(got == want, s"par=$par")
    }
  }

  test("distributed output passes the DataFrame verification joins") {
    val g = GraphGen.randomGnp(40, 0.3, 27)
    val (df, _) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)
    val e = GraphOps.toEdgesDf(spark, g)
    assert(GraphOps.nonEdgePairCount(df, e) == 0L)
    assert(GraphOps.extenderCount(df, e) == 0L)
    assert(GraphOps.duplicateCount(df) == 0L)
  }

  test("edge DataFrame ingestion end-to-end (SynthData.paperGraph)") {
    val edges = repro.SynthData.baGraph(spark, 200, 3, seed = 9)
    val g = GraphOps.toLocalGraph(GraphOps.normalize(edges), 200)
    val stats = DistMCE.run(spark, g, MceConfig.hbbmcPP)
    val (_, localStats) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    assert(stats.cliques == localStats.cliques)
  }
}
