package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalGraph}

/** Engine-level behavior: counters, ET effectiveness, preset wiring. */
class EngineSpec extends SparkSpec {

  test("stats: clique count, sizes, and level-1 branch count") {
    val g = TestGraphs.moonMoser(3)
    val (cliques, stats) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    assert(cliques.size == 27)
    assert(stats.cliques == 27)
    assert(stats.maxSize == 3)
    assert(stats.sumSize == 81)
  }

  test("ET reduces the number of recursive calls on clique-heavy graphs") {
    val cfg = GraphGen.DatasetConfig("T", "t", 500, 2, 40, 6, 14, 0, 5)
    val g = GraphGen.generate(cfg)
    val (_, withEt) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    val (_, noEt) = Engine.collectLocal(g, MceConfig.hbbmcP)
    assert(withEt.cliques == noEt.cliques)
    assert(withEt.calls < noEt.calls,
      s"ET calls ${withEt.calls} should be < ${noEt.calls}")
    assert(withEt.etApplied > 0)
    assert(noEt.etApplied == 0)
  }

  test("#Calls grows monotonically with t decreasing (Table V trend)") {
    val cfg = GraphGen.DatasetConfig("T", "t", 400, 3, 30, 5, 12, 0, 6)
    val g = GraphGen.generate(cfg)
    val calls = (0 to 3).map(t => Engine.collectLocal(g, MceConfig.hbbmcT(t))._2.calls)
    assert(calls(1) <= calls(0))
    assert(calls(2) <= calls(1))
    assert(calls(3) <= calls(2))
  }

  test("ET ratio is between 0 and 1") {
    val cfg = GraphGen.DatasetConfig("T", "t", 300, 3, 25, 5, 10, 0, 7)
    val g = GraphGen.generate(cfg)
    val (_, s) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    assert(s.plexBranches >= s.etApplied)
    assert(s.etApplied > 0)
  }

  test("deeper edge phases create more calls (Table IV trend)") {
    val cfg = GraphGen.DatasetConfig("T", "t", 300, 3, 20, 6, 10, 0, 8)
    val g = GraphGen.generate(cfg)
    val c1 = Engine.collectLocal(g, MceConfig.hbbmcDepth(1))._2
    val c2 = Engine.collectLocal(g, MceConfig.hbbmcDepth(2))._2
    val c3 = Engine.collectLocal(g, MceConfig.hbbmcDepth(3))._2
    assert(c1.cliques == c2.cliques && c2.cliques == c3.cliques)
    assert(c1.calls < c2.calls, s"${c1.calls} vs ${c2.calls}")
    assert(c2.calls <= c3.calls, s"${c2.calls} vs ${c3.calls}")
  }

  test("level-1 units: anchor groups covering all edges for HBBMC, vertices for VBBMC") {
    val g = GraphGen.randomGnp(40, 0.3, 9)
    val prepE = Engine.prepare(g, MceConfig.hbbmcPP.copy(gr = false))
    assert(prepE.anchorEdges.length == g.m)
    assert(prepE.anchorEdges.toSeq.sorted == (0 until g.m))
    assert(prepE.units == prepE.anchorVerts.length)
    assert(prepE.anchorOff.last == g.m)
    val prepV = Engine.prepare(g, MceConfig.rDegen.copy(gr = false))
    assert(prepV.units == g.n)
  }

  test("GR shrinks the level-1 unit count") {
    val g = GraphGen.randomGnp(80, 0.06, 10)
    val withGr = Engine.prepare(g, MceConfig.hbbmcPP)
    val noGr = Engine.prepare(g, MceConfig.hbbmcPP.copy(gr = false))
    assert(withGr.units <= noGr.units)
  }

  test("order bound is recorded (tau for truss)") {
    val g = GraphGen.randomGnp(50, 0.3, 11)
    val prep = Engine.prepare(g, MceConfig.hbbmcPP.copy(gr = false))
    assert(prep.orderBound == repro.graph.TrussOrder.compute(g).bound)
  }

  test("a 50,000-leaf hub anchor runs under HBBMC++ and matches RDegen") {
    // Hub–hub edges are anchored at a hub of degree 50,002, far above the
    // dense pair-rank budget: its ranks are looked up by edge id.
    val g = TestGraphs.hubs(3, 50000, 0, 1)
    val hb = Engine.runLocal(g, MceConfig.hbbmcPP, new CountingSink)
    val rd = Engine.runLocal(g, MceConfig.rDegen, new CountingSink)
    assert(rd.cliques == 50000)
    assert((hb.cliques, hb.sumSize, hb.maxSize) == ((rd.cliques, rd.sumSize, rd.maxSize)))
  }

  test("an anchor beyond the largest neighborhood bitset fails naming the anchor") {
    // Without GR the hub–hub edge is anchored at hub 0 of degree 380,001:
    // 380,001 rows of 5,938 words exceed the largest JVM array.
    val g = TestGraphs.hubs(2, 380000, 0, 1)
    val err = intercept[IllegalArgumentException](
      Engine.runLocal(g, MceConfig.hbbmcPP.copy(gr = false), new CountingSink))
    assert(err.getMessage.contains("anchor vertex 0 has degree 380001"), err.getMessage)
  }

  test("edge depth 2 runs a star whose center has degree 2^20, as depth 1 does") {
    val g = TestGraphs.star(1 << 20 | 1) // center of degree 2^20
    val d1 = Engine.runLocal(g, MceConfig.hbbmcPP.copy(gr = false), new CountingSink)
    val d2 = Engine.runLocal(g, MceConfig.hbbmcDepth(2).copy(gr = false), new CountingSink)
    assert(d1.cliques == 1 << 20)
    assert((d2.cliques, d2.sumSize, d2.maxSize) == ((d1.cliques, d1.sumSize, d1.maxSize)))
  }

  test("presets match the paper's algorithm naming") {
    assert(MceConfig.hbbmcPP.etT == 3 && MceConfig.hbbmcPP.gr)
    assert(MceConfig.hbbmcP.etT == 0)
    assert(MceConfig.rDegen.level1 == Level1.VertexDegeneracy)
    assert(MceConfig.rDegen.inner == Kernels.Pivot)
    assert(MceConfig.rRcd.inner == Kernels.Rcd)
    assert(MceConfig.rFac.inner == Kernels.Fac)
    assert(MceConfig.rRef.inner == Kernels.Ref)
    assert(MceConfig.hbbmcDepth(3).edgeDepth == 3)
    assert(MceConfig.ebbmc.edgeDepth == Int.MaxValue)
  }

  test("singleton-only graph via the edge split without GR") {
    val g = LocalGraph.empty(4)
    val (cliques, _) = Engine.collectLocal(g, MceConfig.hbbmcPP.copy(gr = false))
    assert(cliques == Vector(Vector(0), Vector(1), Vector(2), Vector(3)))
  }

  test("vertex split emits singletons naturally") {
    val g = TestGraphs.of(4, (0, 1))
    val (cliques, _) = Engine.collectLocal(g, MceConfig.rDegen.copy(gr = false))
    assert(cliques == Vector(Vector(0, 1), Vector(2), Vector(3)))
  }
}
