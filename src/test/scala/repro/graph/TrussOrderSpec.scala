package repro.graph

import repro.{SparkSpec, TestGraphs}
import scala.util.Random

class TrussOrderSpec extends SparkSpec {

  test("empty and edgeless graphs") {
    assert(TrussOrder.compute(LocalGraph.empty(5)).bound == 0)
    assert(TrussOrder.compute(LocalGraph.empty(5)).rank.isEmpty)
  }

  test("triangle-free graph has tau 0") {
    assert(TrussOrder.compute(TestGraphs.path(10)).bound == 0)
    assert(TrussOrder.compute(TestGraphs.cycle(10)).bound == 0)
    assert(TrussOrder.compute(TestGraphs.star(10)).bound == 0)
  }

  test("complete graph K_n has tau n-2") {
    // Removing edges one by one, the first removal sees n-2 common neighbors.
    assert(TrussOrder.compute(LocalGraph.complete(6)).bound == 4)
    assert(TrussOrder.compute(LocalGraph.complete(3)).bound == 1)
  }

  test("rank is a permutation of 0 until m") {
    val g = GraphGen.randomGnp(30, 0.3, 7)
    val r = TrussOrder.compute(g)
    assert(r.rank.toSeq.sorted == (0 until g.m))
  }

  test("bound equals the generic achieved-bound evaluator") {
    for (seed <- 0 until 8) {
      val g = GraphGen.randomGnp(25, 0.35, seed)
      val r = TrussOrder.compute(g)
      assert(EdgeOrders.achievedBound(g, r.rank) == r.bound)
    }
  }

  for (seed <- 0 until 10)
    test(s"tau < delta (paper property), seed=$seed") {
      val rng = new Random(seed)
      val g = GraphGen.randomGnp(10 + rng.nextInt(30), 0.1 + rng.nextDouble() * 0.4, seed + 50)
      if (g.m > 0) {
        val tau = TrussOrder.compute(g).bound
        val delta = Degeneracy.compute(g).delta
        assert(tau < delta, s"tau=$tau delta=$delta")
      }
    }

  test("truss ordering is at least as tight as degeneracy-lex and min-degree") {
    for (seed <- 0 until 6) {
      val g = GraphGen.randomGnp(30, 0.3, seed + 500)
      val truss = EdgeOrders.truss(g).bound
      val dgn = EdgeOrders.degeneracyLex(g, Degeneracy.compute(g)).bound
      val mdg = EdgeOrders.minDegree(g).bound
      assert(truss <= dgn, s"truss=$truss dgn=$dgn")
      assert(truss <= mdg, s"truss=$truss mdg=$mdg")
    }
  }

  test("alternative orderings are permutations too") {
    val g = GraphGen.randomGnp(30, 0.25, 9)
    val dgn = EdgeOrders.degeneracyLex(g, Degeneracy.compute(g))
    val mdg = EdgeOrders.minDegree(g)
    assert(dgn.rank.toSeq.sorted == (0 until g.m))
    assert(mdg.rank.toSeq.sorted == (0 until g.m))
  }

  test("min-degree ordering sorts by endpoint min degree") {
    val g = GraphGen.randomGnp(20, 0.3, 10)
    val r = EdgeOrders.minDegree(g).rank
    val key = (e: Int) => math.min(g.degree(g.eu(e)), g.degree(g.ev(e)))
    val byRank = (0 until g.m).sortBy(r(_))
    byRank.sliding(2).foreach {
      case Seq(a, b) => assert(key(a) <= key(b))
      case _         =>
    }
  }

  // Pinned (τ, java.util.Arrays.hashCode(rank)). The order decides every
  // level-1 branch, so #Calls and ET counts move if it changes: any
  // reimplementation must reproduce it exactly, ties included.
  test("ranks are pinned on a suite graph, a hub graph and random graphs") {
    val cases = Seq(
      "FB" -> GraphGen.generate(GraphGen.byName("FB")),
      "hubs" -> TestGraphs.hubs(4, 500, 60, 3),
      "gnp-1" -> GraphGen.randomGnp(40, 0.3, 1),
      "gnp-2" -> GraphGen.randomGnp(80, 0.15, 2),
      "gnp-3" -> GraphGen.randomGnp(120, 0.08, 3),
      "gnp-4" -> GraphGen.randomGnp(30, 0.6, 4))
    val pinned = Map(
      "FB" -> (16, -465564474),
      "hubs" -> (4, 2008516518),
      "gnp-1" -> (3, 1105158283),
      "gnp-2" -> (2, 2030071128),
      "gnp-3" -> (2, 324931587),
      "gnp-4" -> (7, 920167462))
    for ((name, g) <- cases) {
      val r = TrussOrder.compute(g)
      assert((r.bound, java.util.Arrays.hashCode(r.rank)) == pinned(name), s"ordering of $name moved")
    }
  }

  test("each edge, when ranked, has the least live support of the remaining edges") {
    val graphs = (0 until 6).map(s => GraphGen.randomGnp(20 + 3 * s, 0.35, s + 900)) :+
      TestGraphs.hubs(3, 30, 6, 5)
    for (g <- graphs) {
      val rank = TrussOrder.compute(g).rank
      val live = Array.fill(g.m)(true)
      def support(e: Int): Int = g.commonNeighbors(g.eu(e), g.ev(e)).count { w =>
        live(g.edgeId(g.eu(e), w)) && live(g.edgeId(g.ev(e), w))
      }
      for (e <- (0 until g.m).sortBy(rank(_))) {
        val least = (0 until g.m).filter(live(_)).map(support).min
        assert(support(e) == least, s"edge $e ranked ${rank(e)} with support ${support(e)} > $least")
        live(e) = false
      }
    }
  }

  test("tau bounds the level-1 candidate size on the paper-suite generator") {
    val cfg = GraphGen.DatasetConfig("T", "t", 400, 3, 30, 5, 9, 0, 77)
    val g = GraphGen.generate(cfg)
    val r = TrussOrder.compute(g)
    // By definition of achievedBound every level-1 branch has ≤ bound
    // candidates; spot-check directly.
    val rank = r.rank
    var maxC = 0
    for (e <- 0 until g.m) {
      val u = g.eu(e); val v = g.ev(e)
      val c = g.commonNeighbors(u, v).count { w =>
        rank(g.edgeId(u, w)) > rank(e) && rank(g.edgeId(v, w)) > rank(e)
      }
      maxC = math.max(maxC, c)
    }
    assert(maxC == r.bound)
  }
}
