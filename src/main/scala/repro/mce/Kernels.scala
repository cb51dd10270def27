package repro.mce

/** Branch-local enumeration kernels.
  *
  * A level-1 branch (one edge or one vertex of the ordered initial split)
  * is solved entirely inside its `BranchGraph` with bitset sets. Four
  * vertex-oriented variants mirror the paper's baselines:
  *
  *  - [[Kernels.Pivot]] — classic Tomita max-pivot (BK_Pivot / BK_Degen);
  *    the inner engine of HBBMC (Algorithm 4).
  *  - [[Kernels.Ref]]   — BK_Ref-style refined pivoting: prefer exclusion-set
  *    pivots on ties and kill branches dominated by an exclusion vertex.
  *  - [[Kernels.Rcd]]   — BK_Rcd (Algorithm 9): repeatedly branch on the
  *    minimum-degree candidate until the candidate graph is a clique.
  *  - [[Kernels.Fac]]   — BK_Fac (Algorithm 10): start from an arbitrary
  *    pivot and opportunistically replace it when a processed vertex would
  *    produce fewer branches.
  *
  * Edge-oriented branching below level 1 (`edgeRec`) implements EBBMC's
  * recursive step (Algorithm 3 lines 7–12) via the rank-threshold
  * formulation of DESIGN.md §4; it is used for the paper's Table IV
  * (d ≥ 2) and for pure EBBMC.
  *
  * Early termination (Section IV) hooks into every variant: the t-plex
  * condition is checked during the degree scan that pivot selection needs
  * anyway, as the paper prescribes. A `clean` flag records that no consumed
  * (deleted) pair can exist inside C — once true it is inherited by every
  * descendant, so dual-graph checks are skipped.
  */
object Kernels {

  sealed trait Variant extends Serializable
  case object Pivot extends Variant
  case object Ref extends Variant
  case object Rcd extends Variant
  case object Fac extends Variant

  /** Kernel-level configuration (see `repro.mce.MceConfig`). */
  final case class KernelConfig(variant: Variant, etT: Int, edgeDepth: Int) extends Serializable

  /** Solve one level-1 branch.
    *
    * @param sPrefix global vertex ids already in the partial clique S
    * @param level   depth of this branch in the recursion tree (level-1 = 1,
    *                so kernels start at 2); edge-oriented branching continues
    *                while `level <= edgeDepth`
    */
  def solve(bg: BranchGraph, c: Array[Long], x: Array[Long], sPrefix: Array[Int],
            level: Int, cfg: KernelConfig, counters: Counters, sink: CliqueSink): Unit = {
    val solver = new Solver(bg, cfg, counters, sink)
    solver.setPoolLengths(c, x)
    var i = 0
    while (i < sPrefix.length) { solver.buf(i) = sPrefix(i); i += 1 }
    solver.len = sPrefix.length
    solver.dispatch(c, x, Int.MinValue, level)
  }

  private final class Solver(bg: BranchGraph, cfg: KernelConfig, counters: Counters, sink: CliqueSink) {
    val buf = new Array[Int](bg.nLoc + 8)
    var len = 0
    private val dual = bg.dual
    private val surv = bg.survFlat
    private val full = bg.fullFlat
    private val W = bg.words

    // Depth-pooled candidate/exclusion buffers: the recursion is properly
    // nested, so reusing stack-indexed buffers removes nearly all per-call
    // allocation (which otherwise throttles 16-way Spark execution with GC).
    private var cLen = 0
    private var xLen = 0
    private val cPool = new java.util.ArrayList[Array[Long]]()
    private val xPool = new java.util.ArrayList[Array[Long]]()
    private var cPos = 0
    private var xPos = 0
    def setPoolLengths(c: Array[Long], x: Array[Long]): Unit = { cLen = c.length; xLen = x.length }
    private def allocC(): Array[Long] = {
      if (cPos == cPool.size) cPool.add(new Array[Long](cLen))
      val a = cPool.get(cPos); cPos += 1; a
    }
    private def allocX(): Array[Long] = {
      if (xPos == xPool.size) xPool.add(new Array[Long](xLen))
      val a = xPool.get(xPos); xPos += 1; a
    }

    def dispatch(c: Array[Long], x: Array[Long], r: Int, level: Int): Unit = {
      val clean = !dual
      if (level <= cfg.edgeDepth && bg.localRank != null) edgeRec(c, x, r, level)
      else cfg.variant match {
        case Pivot => pivotRec(c, x, refMode = false, clean)
        case Ref   => pivotRec(c, x, refMode = true, clean)
        case Rcd   => rcdRec(c, x, clean)
        case Fac   => facRec(c, x, clean)
      }
    }

    /** Early-termination dispatch: the 1-plex (clique) case is emitted
      * inline — the complement machinery is reserved for real 2-/3-plexes.
      */
    private def etEmit(c: Array[Long], cSize: Int, minD: Int): Unit = {
      counters.etApplied += 1
      if (minD == cSize - 1) {
        val save = len
        Bits.foreachBit(c) { v => buf(len) = bg.globalIds(v); len += 1 }
        emit()
        len = save
      } else EarlyTermination.enumerate(bg, c, buf, len, sink)
    }

    private def emit(): Unit = sink.emit(buf, len)

    // ---------------------------------------------------------------- pivot

    private def pivotRec(c: Array[Long], x: Array[Long], refMode: Boolean, clean: Boolean): Unit = {
      counters.calls += 1
      val cSize = Bits.count(c)
      if (cSize == 0) {
        if (Bits.isEmpty(x)) emit()
        return
      }
      var minD = Int.MaxValue
      var pivot = -1
      var pivotCnt = -1
      var pivotFromX = false
      var noDeleted = true
      Bits.foreachBit(c) { v =>
        val ds = Bits.countAndRow(c, surv, v * W)
        if (!clean && Bits.countAndRow(c, full, v * W) != ds) noDeleted = false
        if (ds < minD) minD = ds
        if (ds > pivotCnt) { pivotCnt = ds; pivot = v }
      }
      val xEmpty = Bits.isEmpty(x)
      if (cfg.etT >= 1 && noDeleted && minD >= cSize - cfg.etT) {
        counters.plexBranches += 1
        if (xEmpty) {
          etEmit(c, cSize, minD)
          return
        }
      }
      if (!xEmpty) {
        Bits.foreachBit(x) { xv =>
          val cnt = Bits.countAndRow(c, full, xv * W)
          if (cnt > pivotCnt || (refMode && cnt == pivotCnt)) {
            pivotCnt = cnt; pivot = xv; pivotFromX = true
          }
        }
        // BK_Ref-style domination: an exclusion vertex adjacent to every
        // candidate makes every clique of this branch non-maximal.
        if (refMode && pivotFromX && pivotCnt == cSize) return
      }
      val cBase = cPos
      val xBase = xPos
      val branchSet = allocC()
      if (pivotFromX) Bits.andNotIntoRow(branchSet, c, full, pivot * W)
      else Bits.andNotIntoRow(branchSet, c, surv, pivot * W)
      val cw = allocC(); Bits.copyInto(cw, c)
      val xw = allocX(); Bits.copyInto(xw, x)
      val cN = allocC()
      val xN = allocX()
      val childClean = clean || noDeleted
      Bits.foreachBit(branchSet) { v =>
        Bits.andIntoRow(cN, cw, surv, v * W)
        if (childClean) Bits.andIntoRow(xN, xw, full, v * W)
        else Bits.mixXIntoRow(xN, xw, cw, full, surv, v * W)
        buf(len) = bg.globalIds(v); len += 1
        pivotRec(cN, xN, refMode, childClean)
        len -= 1
        Bits.clear(cw, v); Bits.set(xw, v)
      }
      cPos = cBase
      xPos = xBase
    }

    // ------------------------------------------------------------------ rcd

    private def rcdRec(c: Array[Long], x: Array[Long], clean0: Boolean): Unit = {
      counters.calls += 1
      if (Bits.isEmpty(c) && Bits.isEmpty(x)) { emit(); return }
      val cw = Bits.copy(c)
      val xw = Bits.copy(x)
      var clean = clean0
      var done = false
      while (!done) {
        val cSize = Bits.count(cw)
        if (cSize == 0) return
        var minD = Int.MaxValue
        var minV = -1
        var noDeleted = true
        Bits.foreachBit(cw) { v =>
          val ds = Bits.countAndRow(cw, surv, v * W)
          if (!clean && Bits.countAndRow(cw, full, v * W) != ds) noDeleted = false
          if (ds < minD) { minD = ds; minV = v }
        }
        clean = clean || noDeleted
        val xEmpty = Bits.isEmpty(xw)
        if (cfg.etT >= 1 && noDeleted && minD >= cSize - cfg.etT) {
          counters.plexBranches += 1
          if (xEmpty) {
            etEmit(cw, cSize, minD)
            return
          }
        }
        if (minD == cSize - 1) {
          // cw is a clique (then necessarily no deleted pair): the single
          // candidate maximal clique is S ∪ C — emit unless an exclusion
          // vertex extends it (Algorithm 9 lines 10-11).
          var extender = false
          Bits.foreachBit(xw) { xv =>
            if (!extender && Bits.countAndRow(cw, full, xv * W) == cSize) extender = true
          }
          if (!extender) {
            val save = len
            Bits.foreachBit(cw) { v => buf(len) = bg.globalIds(v); len += 1 }
            emit()
            len = save
          }
          done = true
        } else {
          val cN = Bits.andRow(cw, surv, minV * W)
          val xN = new Array[Long](W)
          if (clean) Bits.andIntoRow(xN, xw, full, minV * W)
          else Bits.mixXIntoRow(xN, xw, cw, full, surv, minV * W)
          buf(len) = bg.globalIds(minV); len += 1
          rcdRec(cN, xN, clean)
          len -= 1
          Bits.clear(cw, minV); Bits.set(xw, minV)
        }
      }
    }

    // ------------------------------------------------------------------ fac

    private def facRec(c: Array[Long], x: Array[Long], clean0: Boolean): Unit = {
      counters.calls += 1
      val cSize = Bits.count(c)
      if (cSize == 0) {
        if (Bits.isEmpty(x)) emit()
        return
      }
      var clean = clean0
      if (cfg.etT >= 1) {
        var minD = Int.MaxValue
        var noDeleted = true
        Bits.foreachBit(c) { v =>
          val ds = Bits.countAndRow(c, surv, v * W)
          if (!clean && Bits.countAndRow(c, full, v * W) != ds) noDeleted = false
          if (ds < minD) minD = ds
        }
        clean = clean || noDeleted
        if (noDeleted && minD >= cSize - cfg.etT) {
          counters.plexBranches += 1
          if (Bits.isEmpty(x)) {
            etEmit(c, cSize, minD)
            return
          }
        }
      }
      val cw = Bits.copy(c)
      val xw = Bits.copy(x)
      val v0 = Bits.first(cw)
      var p = Bits.andNotRow(cw, surv, v0 * W)
      var pCount = Bits.count(p)
      while (pCount > 0) {
        val u = Bits.first(p)
        val cN = Bits.andRow(cw, surv, u * W)
        val xN = new Array[Long](W)
        if (clean) Bits.andIntoRow(xN, xw, full, u * W)
        else Bits.mixXIntoRow(xN, xw, cw, full, surv, u * W)
        buf(len) = bg.globalIds(u); len += 1
        facRec(cN, xN, clean)
        len -= 1
        Bits.clear(cw, u); Bits.set(xw, u); Bits.clear(p, u); pCount -= 1
        // Alg. 10 lines 15–17: adopt u as pivot if it prunes harder. u is in
        // X now, so its pruning set uses full adjacency.
        val p2 = Bits.andNotRow(cw, full, u * W)
        val p2c = Bits.count(p2)
        if (p2c < pCount) { p = p2; pCount = p2c }
      }
    }

    /** Hand a branch from the edge phase to the vertex phase. The branch
      * graph's surviving bitsets are thresholded at the LEVEL-1 rank; pairs
      * consumed at deeper edge levels (rank in (r0, re]) must not be usable
      * by the vertex kernels, or their cliques would be enumerated twice.
      * When such stale pairs exist inside C, run the subtree on a derived
      * graph whose surviving rows are re-thresholded at `re`.
      */
    private def handoffToVertex(cN: Array[Long], xN: Array[Long], re: Int, level: Int): Unit = {
      val ranks = bg.localRank
      var anyStale = false
      Bits.foreachBit(cN) { a =>
        if (!anyStale) {
          Bits.foreachBit(Bits.andRow(cN, surv, a * W)) { b =>
            if (b > a && ranks.rank(a, b) <= re) anyStale = true
          }
        }
      }
      if (!anyStale) { dispatch(cN, xN, re, level); return }
      val surv2 = new Array[Long](bg.nLoc * W)
      Bits.foreachBit(cN) { a => System.arraycopy(surv, a * W, surv2, a * W, W) }
      Bits.foreachBit(cN) { a =>
        Bits.foreachBit(Bits.andRow(cN, surv2, a * W)) { b =>
          if (b > a && ranks.rank(a, b) <= re) {
            Bits.clear2d(surv2, a * W, b); Bits.clear2d(surv2, b * W, a)
          }
        }
      }
      val bg2 = new BranchGraph(bg.nLoc, W, surv2, full, bg.globalIds, bg.localRank)
      val solver2 = new Solver(bg2, cfg, counters, sink)
      solver2.setPoolLengths(cN, xN)
      System.arraycopy(buf, 0, solver2.buf, 0, len)
      solver2.len = len
      solver2.dispatch(cN, xN, re, level)
    }

    // ----------------------------------------------------- edge recursion

    /** EBBMC's recursive step: branch on surviving edges (rank > r) of the
      * candidate graph in global-ordering order, then on isolated candidates
      * (Eq. 3). `level` grows by one per edge level; once it exceeds
      * `cfg.edgeDepth` the vertex-oriented variant takes over.
      */
    private def edgeRec(c: Array[Long], x: Array[Long], r: Int, level: Int): Unit = {
      counters.calls += 1
      val cArr = Bits.toArray(c)
      if (cArr.isEmpty) {
        if (Bits.isEmpty(x)) emit()
        return
      }
      // Collect surviving edges (rank > r) among C and per-vertex surviving
      // degrees. Sort keys are rank << 32 | slot, where slot indexes the
      // edge's endpoints i << 32 | j in `ends`; the ranks are distinct.
      val ranks = bg.localRank
      var keys = new Array[Long](16)
      var ends = new Array[Long](16)
      var nEdges = 0
      val survDeg = new Array[Int](bg.nLoc)
      var a = 0
      while (a < cArr.length) {
        val i = cArr(a)
        Bits.foreachBit(Bits.andRow(c, surv, i * W)) { j =>
          if (j > i) {
            val rr = ranks.rank(i, j)
            if (rr > r) {
              if (nEdges == keys.length) {
                keys = java.util.Arrays.copyOf(keys, 2 * nEdges)
                ends = java.util.Arrays.copyOf(ends, 2 * nEdges)
              }
              keys(nEdges) = (rr.toLong << 32) | nEdges
              ends(nEdges) = (i.toLong << 32) | j
              nEdges += 1
              survDeg(i) += 1; survDeg(j) += 1
            }
          }
        }
        a += 1
      }
      // Early termination for the edge phase: requires every full edge in C
      // to also be a *currently* surviving edge.
      if (cfg.etT >= 1 && Bits.isEmpty(x)) {
        var minD = Int.MaxValue
        var noDeleted = true
        var k = 0
        while (k < cArr.length) {
          val v = cArr(k)
          val ds = survDeg(v)
          if (Bits.countAndRow(c, full, v * W) != ds) noDeleted = false
          if (ds < minD) minD = ds
          k += 1
        }
        if (noDeleted && minD >= cArr.length - cfg.etT) {
          counters.plexBranches += 1
          counters.etApplied += 1
          if (minD == cArr.length - 1) {
            val save = len
            var k2 = 0
            while (k2 < cArr.length) { buf(len) = bg.globalIds(cArr(k2)); len += 1; k2 += 1 }
            emit()
            len = save
          } else EarlyTermination.enumerate(bg, c, buf, len, sink)
          return
        }
      }
      java.util.Arrays.sort(keys, 0, nEdges)
      val cx = new Array[Long](x.length)
      Bits.orIntoMixed(cx, x, c)
      var ei = 0
      while (ei < nEdges) {
        val re = (keys(ei) >>> 32).toInt
        val slot = keys(ei).toInt
        val i = (ends(slot) >>> 32).toInt
        val j = ends(slot).toInt
        // A' = (C ∪ X) ∩ N_full(i) ∩ N_full(j); C' ⊆ C requires both cross
        // edges surviving beyond rank(e).
        val aNew = Bits.andRow(Bits.andRow(cx, full, i * W), full, j * W)
        val cNew = new Array[Long](c.length)
        Bits.foreachBit(Bits.andRow(Bits.andRow(c, surv, i * W), surv, j * W)) { w =>
          if (ranks.rank(i, w) > re && ranks.rank(j, w) > re) Bits.set(cNew, w)
        }
        val xNew = Bits.andNotMixed(aNew, cNew)
        buf(len) = bg.globalIds(i); buf(len + 1) = bg.globalIds(j); len += 2
        if (level + 1 <= cfg.edgeDepth) dispatch(cNew, xNew, re, level + 1)
        else handoffToVertex(cNew, xNew, re, level + 1)
        len -= 2
        ei += 1
      }
      // Eq. (3): candidates isolated in the surviving graph are singleton
      // extensions; maximal iff nothing in C ∪ X is (fully) adjacent to them.
      a = 0
      while (a < cArr.length) {
        val v = cArr(a)
        if (survDeg(v) == 0 && Bits.countAndRow(cx, full, v * W) == 0) {
          buf(len) = bg.globalIds(v); len += 1
          emit()
          len -= 1
        }
        a += 1
      }
    }
  }
}
