package repro.mce

import repro.graph.{Degeneracy, EdgeOrderResult, EdgeOrders, LocalGraph}

/** Which ordering drives level-1 edge branching (paper Table VI). */
sealed trait EdgeOrderKind extends Serializable
object EdgeOrderKind {
  case object Truss extends EdgeOrderKind    // HBBMC / HBBMC++ default
  case object DegenLex extends EdgeOrderKind // HBBMC-dgn
  case object MinDeg extends EdgeOrderKind   // HBBMC-mdg
}

/** How the initial search space is partitioned. */
sealed trait Level1 extends Serializable
object Level1 {
  /** BK_Degen-style split: one branch per vertex of the degeneracy order. */
  case object VertexDegeneracy extends Level1

  /** EBBMC/HBBMC split: one branch per edge of the chosen ordering. */
  final case class EdgeOrdered(kind: EdgeOrderKind) extends Level1
}

/** Full algorithm configuration. The paper's named algorithms are presets
  * in the companion object.
  *
  * @param edgeDepth number of edge-oriented branching levels (the paper's d;
  *                  level-1 is depth 1). 0 for vertex-oriented level-1.
  * @param etT       early-termination t-plex parameter (0 = off)
  * @param gr        graph reduction preprocessing
  */
final case class MceConfig(
    level1: Level1,
    inner: Kernels.Variant = Kernels.Pivot,
    edgeDepth: Int = 1,
    etT: Int = 0,
    gr: Boolean = true
) extends Serializable {
  def kernelConfig: Kernels.KernelConfig = Kernels.KernelConfig(inner, etT, edgeDepth)
}

object MceConfig {
  import Kernels._
  val hbbmcPP: MceConfig = MceConfig(Level1.EdgeOrdered(EdgeOrderKind.Truss), Pivot, 1, 3, gr = true)
  val hbbmcP: MceConfig = hbbmcPP.copy(etT = 0)
  val rRef: MceConfig = MceConfig(Level1.VertexDegeneracy, Ref, 0, 0, gr = true)
  val rDegen: MceConfig = MceConfig(Level1.VertexDegeneracy, Pivot, 0, 0, gr = true)
  val rRcd: MceConfig = MceConfig(Level1.VertexDegeneracy, Rcd, 0, 0, gr = true)
  val rFac: MceConfig = MceConfig(Level1.VertexDegeneracy, Fac, 0, 0, gr = true)
  val refPP: MceConfig = hbbmcPP.copy(inner = Ref)
  val rcdPP: MceConfig = hbbmcPP.copy(inner = Rcd)
  val facPP: MceConfig = hbbmcPP.copy(inner = Fac)
  def hbbmcDepth(d: Int): MceConfig = hbbmcPP.copy(edgeDepth = d)
  def hbbmcT(t: Int): MceConfig = hbbmcPP.copy(etT = t)
  val vbbmcDgn: MceConfig = MceConfig(Level1.VertexDegeneracy, Pivot, 0, 3, gr = true)
  val hbbmcDgn: MceConfig = hbbmcPP.copy(level1 = Level1.EdgeOrdered(EdgeOrderKind.DegenLex))
  val hbbmcMdg: MceConfig = hbbmcPP.copy(level1 = Level1.EdgeOrdered(EdgeOrderKind.MinDeg))
  /** Pure EBBMC: edge-oriented branching all the way down, with ET. */
  val ebbmc: MceConfig = hbbmcPP.copy(edgeDepth = Int.MaxValue)
  val ebbmcNoEt: MceConfig = ebbmc.copy(etT = 0)
}

/** Precomputed, broadcast-able state of one enumeration: the (possibly
  * reduced) graph, orderings, and the cliques GR emitted directly.
  */
final class Prepared(
    val orig: LocalGraph,
    val reduced: LocalGraph,
    val oldId: Array[Int],
    val cfg: MceConfig,
    val edgeRank: Array[Int], // null unless level-1 is edge-ordered
    val orderBound: Int,      // τ for truss; achieved bound otherwise
    val degenPos: Array[Int], // null unless level-1 is vertex-oriented
    val directCliques: Array[Array[Int]], // original ids, from GR / isolated
    // Edge-ordered level-1 branches grouped by anchor vertex (CSR):
    // anchorVerts(i) anchors edges anchorEdges(anchorOff(i) until anchorOff(i+1)).
    val anchorVerts: Array[Int],
    val anchorOff: Array[Int],
    val anchorEdges: Array[Int]
) extends Serializable {
  /** Number of schedulable level-1 units (anchor groups for edge mode). */
  def units: Int = cfg.level1 match {
    case Level1.VertexDegeneracy => reduced.n
    case _: Level1.EdgeOrdered   => anchorVerts.length
  }
}

/** Sequential driver: preparation (GR + orderings) and per-branch solving.
  * `repro.dist.DistMCE` reuses `prepare`/`solveUnit` with Spark-distributed
  * units; `runLocal` executes all units in order on the calling thread
  * (this is what the benches time, matching the paper's sequential C++).
  */
object Engine {

  def prepare(g: LocalGraph, cfg: MceConfig): Prepared = {
    val direct = new CollectSink
    val (reduced, oldId) =
      if (cfg.gr) {
        val r = GraphReduction.reduce(g, direct)
        (r.reduced, r.oldId)
      } else (g, Array.tabulate(g.n)(identity))
    var edgeRank: Array[Int] = null
    var bound = 0
    var degenPos: Array[Int] = null
    cfg.level1 match {
      case Level1.VertexDegeneracy =>
        degenPos = Degeneracy.compute(reduced).pos
      case Level1.EdgeOrdered(kind) =>
        val res: EdgeOrderResult = kind match {
          case EdgeOrderKind.Truss    => EdgeOrders.truss(reduced)
          case EdgeOrderKind.DegenLex => EdgeOrders.degeneracyLex(reduced, Degeneracy.compute(reduced))
          case EdgeOrderKind.MinDeg   => EdgeOrders.minDegree(reduced)
        }
        edgeRank = res.rank
        bound = res.bound
        if (!cfg.gr) {
          // Without GR, isolated vertices are 1-clique maximal cliques that
          // edge branching cannot reach (paper Eq. 3 at the initial branch).
          var v = 0
          while (v < reduced.n) {
            if (reduced.degree(v) == 0 && g.degree(oldId(v)) == 0)
              direct.cliques += Array(oldId(v))
            v += 1
          }
        }
    }
    // Group the edge branches by an anchor endpoint (the smaller-degree one)
    // so the anchor's neighborhood structures are built once per vertex.
    var anchorVerts: Array[Int] = Array.emptyIntArray
    var anchorOff: Array[Int] = Array.emptyIntArray
    var anchorEdges: Array[Int] = Array.emptyIntArray
    if (edgeRank != null) {
      val m = reduced.m
      val anchorOf = new Array[Int](m)
      val cnt = new Array[Int](reduced.n)
      var e = 0
      while (e < m) {
        val a = reduced.eu(e); val b = reduced.ev(e)
        val anchor =
          if (reduced.degree(a) < reduced.degree(b)) a
          else if (reduced.degree(a) > reduced.degree(b)) b
          else math.min(a, b)
        anchorOf(e) = anchor
        cnt(anchor) += 1
        e += 1
      }
      anchorVerts = (0 until reduced.n).filter(cnt(_) > 0).toArray
      anchorOff = new Array[Int](anchorVerts.length + 1)
      val slot = new Array[Int](reduced.n)
      var i = 0
      while (i < anchorVerts.length) {
        anchorOff(i + 1) = anchorOff(i) + cnt(anchorVerts(i))
        slot(anchorVerts(i)) = anchorOff(i)
        i += 1
      }
      anchorEdges = new Array[Int](m)
      e = 0
      while (e < m) {
        anchorEdges(slot(anchorOf(e))) = e
        slot(anchorOf(e)) += 1
        e += 1
      }
    }
    new Prepared(g, reduced, oldId, cfg, edgeRank, bound, degenPos, direct.cliques.toArray,
      anchorVerts, anchorOff, anchorEdges)
  }

  /** Wrap a raw sink for use with [[solveUnit]]; create once per run or per
    * Spark partition (it owns a reusable buffer).
    */
  def translatingSink(prep: Prepared, sink: CliqueSink): CliqueSink =
    new TranslateFilterSink(prep, sink)

  /** Allocate the reusable construction scratch; one per run / partition. */
  def workspace(prep: Prepared): Workspace = new Workspace(math.max(1, prep.reduced.n))

  /** Solve level-1 branch `unit` (an edge id or a degeneracy position of the
    * reduced graph). `translated` must come from [[translatingSink]] so
    * reduced ids are mapped back to original ids.
    */
  def solveUnit(prep: Prepared, unit: Int, ws: Workspace, counters: Counters,
                translated: CliqueSink): Unit = {
    prep.cfg.level1 match {
      case Level1.VertexDegeneracy =>
        counters.level1Branches += 1
        val t0 = System.nanoTime()
        val result = BranchGraph.forVertexBranch(prep.reduced, prep.degenPos, unit, ws)
        val t1 = System.nanoTime()
        counters.buildNanos += t1 - t0
        dispatch(prep, result, counters, translated)
        counters.solveNanos += System.nanoTime() - t1
      case _: Level1.EdgeOrdered =>
        val t0 = System.nanoTime()
        val ctx = new AnchorContext(prep.reduced, prep.edgeRank, prep.anchorVerts(unit),
          prep.cfg.edgeDepth >= 2, ws)
        counters.buildNanos += System.nanoTime() - t0
        var k = prep.anchorOff(unit)
        val end = prep.anchorOff(unit + 1)
        while (k < end) {
          counters.level1Branches += 1
          val tb = System.nanoTime()
          val result = ctx.branch(prep.anchorEdges(k))
          val tm = System.nanoTime()
          counters.buildNanos += tm - tb
          dispatch(prep, result, counters, translated)
          counters.solveNanos += System.nanoTime() - tm
          k += 1
        }
    }
  }

  private def dispatch(prep: Prepared, result: BranchResult, counters: Counters,
                       translated: CliqueSink): Unit = result match {
    case BranchResult.Trivial(emit) =>
      counters.calls += 1
      if (emit != null) translated.emit(emit, emit.length)
    case BranchResult.Branch(bg, c, x, s) =>
      Kernels.solve(bg, c, x, s, level = 2, prep.cfg.kernelConfig, counters, translated)
  }

  /** Run the whole enumeration sequentially. */
  def runLocal(g: LocalGraph, cfg: MceConfig, sink: CliqueSink): MceStats = {
    val prep = prepare(g, cfg)
    val counting = new CountingSink
    val tee = new TeeSink(counting, sink)
    val counters = new Counters
    emitDirect(prep, tee)
    val translated = translatingSink(prep, tee)
    val ws = workspace(prep)
    var unit = 0
    val total = prep.units
    while (unit < total) {
      solveUnit(prep, unit, ws, counters, translated)
      unit += 1
    }
    counters.toStats(counting)
  }

  /** Convenience: run and collect all cliques (original ids, sorted). */
  def collectLocal(g: LocalGraph, cfg: MceConfig): (Vector[Vector[Int]], MceStats) = {
    val collect = new CollectSink
    val stats = runLocal(g, cfg, collect)
    (RefBK.canon(collect.cliques), stats)
  }

  def emitDirect(prep: Prepared, sink: CliqueSink): Unit = {
    var i = 0
    while (i < prep.directCliques.length) {
      val c = prep.directCliques(i)
      sink.emit(c, c.length)
      i += 1
    }
  }
}

/** Maps reduced-graph ids back to original ids and drops the (rare) size ≤ 2
  * emissions that graph reduction made non-maximal in the original graph.
  */
final class TranslateFilterSink(prep: Prepared, inner: CliqueSink) extends CliqueSink {
  private val tmp = new Array[Int](prep.reduced.n + 8)
  override def emit(vertices: Array[Int], len: Int): Unit = {
    var i = 0
    while (i < len) { tmp(i) = prep.oldId(vertices(i)); i += 1 }
    if (len == 1 && prep.orig.degree(tmp(0)) > 0) return
    if (len == 2 && prep.orig.commonNeighborCount(tmp(0), tmp(1)) > 0) return
    inner.emit(tmp, len)
  }
}
