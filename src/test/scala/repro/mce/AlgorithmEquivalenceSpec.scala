package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalGraph}
import scala.util.Random

/** The heart of the correctness story: every production configuration —
  * HBBMC/EBBMC/VBBMC level-1 splits × inner variants × ET × GR × orderings
  * × edge depths — must produce exactly the clique set of the trusted plain
  * Bron–Kerbosch reference, on special graphs and on many random graphs.
  */
class AlgorithmEquivalenceSpec extends SparkSpec {

  private val configs: Seq[(String, MceConfig)] = Seq(
    "HBBMC++" -> MceConfig.hbbmcPP,
    "HBBMC+" -> MceConfig.hbbmcP,
    "HBBMC++ noGR" -> MceConfig.hbbmcPP.copy(gr = false),
    "HBBMC+ noGR" -> MceConfig.hbbmcP.copy(gr = false),
    "RRef" -> MceConfig.rRef,
    "RDegen" -> MceConfig.rDegen,
    "RRcd" -> MceConfig.rRcd,
    "RFac" -> MceConfig.rFac,
    "RDegen noGR" -> MceConfig.rDegen.copy(gr = false),
    "RRcd noGR" -> MceConfig.rRcd.copy(gr = false),
    "RFac noGR" -> MceConfig.rFac.copy(gr = false),
    "RRef noGR" -> MceConfig.rRef.copy(gr = false),
    "Ref++" -> MceConfig.refPP,
    "Rcd++" -> MceConfig.rcdPP,
    "Fac++" -> MceConfig.facPP,
    "HBBMC d=2" -> MceConfig.hbbmcDepth(2),
    "HBBMC d=3" -> MceConfig.hbbmcDepth(3),
    "HBBMC d=2 noGR" -> MceConfig.hbbmcDepth(2).copy(gr = false),
    "HBBMC t=1" -> MceConfig.hbbmcT(1),
    "HBBMC t=2" -> MceConfig.hbbmcT(2),
    "VBBMC-dgn" -> MceConfig.vbbmcDgn,
    "HBBMC-dgn" -> MceConfig.hbbmcDgn,
    "HBBMC-mdg" -> MceConfig.hbbmcMdg,
    "EBBMC" -> MceConfig.ebbmc,
    "EBBMC noET" -> MceConfig.ebbmcNoEt,
    "EBBMC noGR" -> MceConfig.ebbmc.copy(gr = false)
  )

  private def check(name: String, g: LocalGraph): Unit = {
    val want = RefBK.enumerate(g)
    configs.foreach { case (cfgName, cfg) =>
      val (got, stats) = Engine.collectLocal(g, cfg)
      assert(got == want,
        s"$cfgName differs on $name: got ${got.size} cliques, want ${want.size}\n" +
          s"  extra: ${got.diff(want).take(3)}\n  missing: ${want.diff(got).take(3)}")
      assert(got.distinct == got, s"$cfgName emitted duplicates on $name")
      assert(stats.cliques == want.size.toLong)
      assert(stats.maxSize == (if (want.isEmpty) 0 else want.map(_.size).max))
    }
  }

  // ------------------------------------------------------- special graphs

  test("special: empty graph (singletons)") { check("empty", LocalGraph.empty(6)) }
  test("special: single vertex") { check("K1", LocalGraph.empty(1)) }
  test("special: single edge") { check("K2", TestGraphs.of(2, (0, 1))) }
  test("special: complete K8") { check("K8", LocalGraph.complete(8)) }
  test("special: path P9") { check("P9", TestGraphs.path(9)) }
  test("special: cycle C9") { check("C9", TestGraphs.cycle(9)) }
  test("special: star S10") { check("S10", TestGraphs.star(10)) }
  test("special: Moon–Moser 9 vertices (27 cliques)") { check("MM9", TestGraphs.moonMoser(3)) }
  test("special: Moon–Moser 12 vertices (81 cliques)") { check("MM12", TestGraphs.moonMoser(4)) }
  test("special: cocktail party (2-plex)") { check("CP5", TestGraphs.cocktailParty(5)) }
  test("special: two triangles sharing an edge") {
    check("bowtie", TestGraphs.of(4, (0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
  }
  test("special: clique with a pendant") {
    check("pendant", TestGraphs.of(6, (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
  }
  test("special: disconnected mix with isolated vertices") {
    check("mix", TestGraphs.of(9, (0, 1), (1, 2), (0, 2), (4, 5), (6, 7)))
  }
  test("special: complete bipartite K3,3") {
    check("K33", TestGraphs.of(6, (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)))
  }

  // -------------------------------------------------------- random graphs

  for (seed <- 0 until 18)
    test(s"random G(n,p) sparse, seed=$seed") {
      val rng = new Random(seed)
      val n = 5 + rng.nextInt(35)
      check(s"gnp-sparse-$seed", GraphGen.randomGnp(n, 0.08 + rng.nextDouble() * 0.15, seed))
    }

  for (seed <- 0 until 18)
    test(s"random G(n,p) dense, seed=$seed") {
      val rng = new Random(seed + 99)
      val n = 5 + rng.nextInt(22)
      check(s"gnp-dense-$seed", GraphGen.randomGnp(n, 0.35 + rng.nextDouble() * 0.35, seed + 99))
    }

  for (seed <- 0 until 8)
    test(s"random BA + planted cliques, seed=$seed") {
      val cfg = GraphGen.DatasetConfig("T", "t", 60, 2, 4, 4, 7, 0, seed + 7)
      check(s"social-$seed", GraphGen.generate(cfg))
    }

  for (seed <- 0 until 6)
    test(s"random overlapping planted cliques, seed=$seed") {
      val cfg = GraphGen.DatasetConfig("T", "t", 50, 1, 6, 4, 8, 12, seed + 31)
      check(s"overlap-$seed", GraphGen.generate(cfg))
    }

  // Few vertices of very high degree: the anchor of each hub–hub edge holds
  // every leaf, and most edges tie on support in the truss ordering.
  for (seed <- 0 until 6)
    test(s"random hub-heavy: hubs sharing their leaves, seed=$seed") {
      val rng = new Random(seed + 400)
      val leaves = 200 + rng.nextInt(200)
      check(s"hubs-$seed", TestGraphs.hubs(2 + rng.nextInt(4), leaves, rng.nextInt(leaves / 4), seed))
    }

  // Hub anchors above AnchorContext.DenseRankMaxDegree store no pair-rank
  // matrix: branch building and the deep edge phase (d >= 2, EBBMC) look
  // ranks up by edge id. Hub–hub edges rank last, so a hub branch's
  // candidates are the other hubs: four hubs give those branches
  // candidate pairs.
  for (seed <- 0 until 2)
    test(s"random hub-heavy beyond the dense rank budget, seed=$seed") {
      val rng = new Random(seed + 500)
      val leaves = 1600 + rng.nextInt(400)
      check(s"big-hubs-$seed", TestGraphs.hubs(4, leaves, leaves / 8 + rng.nextInt(leaves / 8), seed))
    }

  // Regression: deep edge-branching (d >= 2) once re-used candidate pairs
  // consumed at level 2 when handing off to the vertex phase (duplicate
  // cliques on dense graphs); caught on G(24, 0.77)-style instances.
  for (seed <- Seq(2341, 2342, 2400, 2500, 2600, 2700))
    test(s"regression: dense graph under deep edge branching, seed=$seed") {
      val rng = new Random(seed)
      val n = 20 + rng.nextInt(8)
      val g = GraphGen.randomGnp(n, 0.68 + rng.nextDouble() * 0.15, seed + 1000000)
      val want = RefBK.enumerate(g)
      for (d <- 2 to 4) {
        val (got, _) = Engine.collectLocal(g, MceConfig.hbbmcDepth(d))
        assert(got == want, s"d=$d differs")
      }
    }

  // --------------------------------------------- medium integration check

  test("medium graph: all configs agree pairwise (no reference)") {
    val cfg = GraphGen.DatasetConfig("T", "t", 400, 3, 25, 5, 12, 0, 271)
    val g = GraphGen.generate(cfg)
    val results = configs.map { case (name, c) => (name, Engine.collectLocal(g, c)._1) }
    val first = results.head
    results.tail.foreach { case (name, got) =>
      assert(got == first._2, s"$name differs from ${first._1} on medium graph")
    }
    // sanity: the planted cliques produce a non-trivial result
    assert(first._2.size > 100)
  }
}
