package repro.mce

import repro.graph.LocalGraph

/** Local-index subgraph for one level-1 branch, with *dual* adjacency.
  *
  * `fullFlat` is the row-major adjacency matrix (bitset rows of `words`
  * longs) of the branch vertices in the original graph G; `survFlat` keeps
  * only edges whose global rank exceeds the branch's ordering threshold
  * (the paper's `E_+` sets). When no candidate pair has been consumed,
  * `survFlat eq fullFlat` and the kernels skip every dual-graph check.
  * See DESIGN.md §4.
  *
  * Rows are only materialized where the kernels read them: candidate
  * vertices get complete rows; exclusion vertices get bits at candidate
  * positions only (X×X adjacency is never consulted), and no surviving
  * rows at all.
  *
  * @param localRank rank of each local candidate pair for edge-branching
  *                  below level 1 (Table IV, d ≥ 2); null when only vertex
  *                  kernels run.
  */
final class BranchGraph(
    val nLoc: Int,
    val words: Int,
    val survFlat: Array[Long],
    val fullFlat: Array[Long],
    val globalIds: Array[Int],
    val localRank: LocalRanks
) {
  def dual: Boolean = !(survFlat eq fullFlat)
  @inline def off(i: Int): Int = i * words
}

/** Rank lookup for local candidate pairs (i, j) of one anchor. Only
  * adjacent pairs are ever queried. Anchors within the dense budget
  * ([[AnchorContext.DenseRankMaxDegree]]) read a row-major int matrix filled
  * while the anchor was built; larger anchors store no ranks and look each
  * pair's global edge rank up through the graph's edge ids.
  */
final class LocalRanks private (nLoc: Int, dense: Array[Int], g: LocalGraph,
                                edgeRank: Array[Int], ids: Array[Int]) {
  def rank(i: Int, j: Int): Int =
    if (dense != null) dense(i * nLoc + j)
    else edgeRank(g.edgeId(ids(i), ids(j)))
}

object LocalRanks {
  /** Wrap an existing row-major rank matrix (stride = nLoc); cells of
    * non-adjacent pairs are never consulted, so they may hold garbage.
    */
  def fromDense(nLoc: Int, dense: Array[Int]): LocalRanks = new LocalRanks(nLoc, dense, null, null, null)

  /** Look ranks up on demand: local index i stands for global vertex ids(i). */
  def fromEdgeIds(g: LocalGraph, edgeRank: Array[Int], ids: Array[Int]): LocalRanks =
    new LocalRanks(ids.length, null, g, edgeRank, ids)
}

/** Reusable per-thread scratch for branch construction: member/flag buffers
  * plus a growable buffer of candidate-pair records.
  */
final class Workspace(n: Int) {
  val idsBuf = new Array[Int](n)
  val flagBuf = new Array[Boolean](n)
  val newIdxBuf = new Array[Int](n)
  // global-id → anchor-local index marks (stamped, no clearing needed)
  val markStamp = new Array[Int](n)
  val markLocal = new Array[Int](n)
  var stamp = 0
  def nextStamp(): Int = { stamp += 1; stamp }
  // shared anchor-neighborhood matrices, grown on demand and reused
  var hFlat = new Array[Long](1024)
  var hRank = new Array[Int](4096)

  /** Size the shared matrices for anchor `u`: a zeroed `nLoc × words`
    * bitset, and an `nLoc²` rank matrix when `denseRanks`.
    */
  def ensureAnchor(u: Int, nLoc: Int, words: Int, denseRanks: Boolean): Unit = {
    require(nLoc.toLong * words <= Int.MaxValue,
      s"anchor vertex $u has degree $nLoc: its $nLoc x $words-word neighborhood bitset would exceed the largest JVM array")
    val fl = nLoc * words
    if (hFlat.length < fl) hFlat = new Array[Long](math.max(fl, hFlat.length * 2)) // zeroed
    else java.util.Arrays.fill(hFlat, 0, fl, 0L)
    if (denseRanks) {
      val rl = nLoc * nLoc
      if (hRank.length < rl) hRank = new Array[Int](math.max(rl, hRank.length * 2))
    }
  }
  // candidate-candidate pair records of the branch under construction
  var pairI = new Array[Int](256)
  var pairJ = new Array[Int](256)
  var pairLen = 0

  def addPair(i: Int, j: Int): Unit = {
    if (pairLen == pairI.length) {
      pairI = java.util.Arrays.copyOf(pairI, pairLen * 2)
      pairJ = java.util.Arrays.copyOf(pairJ, pairLen * 2)
    }
    pairI(pairLen) = i; pairJ(pairLen) = j
    pairLen += 1
  }
}

/** Outcome of building a level-1 branch. `Trivial` carries the clique to
  * emit (or null for a dead branch) without any graph materialization.
  */
sealed trait BranchResult
object BranchResult {
  final case class Trivial(emit: Array[Int]) extends BranchResult
  final case class Branch(bg: BranchGraph, c: Array[Long], x: Array[Long], s: Array[Int]) extends BranchResult
}

/** Shared state for all level-1 edge branches anchored at one vertex `u`.
  *
  * Building a branch's local graph from scratch per edge costs
  * Σ_(w ∈ C) deg(w) *per edge* — the paper instead amortizes subgraph
  * construction across the initial branch (Algorithm 3 line 4 initializes
  * the V±/E± sets once). We group edges by an anchor endpoint and build the
  * anchor's neighborhood matrix `H` (adjacency among N(u)) once; every
  * anchored edge branch is then derived with word operations and rank
  * lookups:
  *
  *  - N(u) is laid out in descending rank(u,·) order, so the candidates of
  *    the branch of e = (u,v) live in the prefix [0, local(v)) — candidate
  *    bitsets span only words(local(v)) words;
  *  - the branch universe A = N(u) ∩ N(v) is exactly H's row of v;
  *  - survival of a candidate pair (rank > rank(e)) is one rank lookup.
  *
  * H is listed from the small side (Chiba & Nishizeki): the row of a
  * neighbor `a` comes from a scan of N(a) against the anchor's marks, or,
  * when deg(a) > [[AnchorContext.ProbeFactor]] × the number of later local
  * vertices, from one edge lookup per later local vertex, so a hub's long
  * list is never scanned by its low-degree neighbors. Anchors of degree up to
  * [[AnchorContext.DenseRankMaxDegree]] also fill a dense pair-rank matrix
  * (O(1) lookups); larger anchors store no ranks and look each pair's rank
  * up through `g.edgeId` (see [[LocalRanks]]), so their memory is the
  * deg × words(deg) bitset H alone.
  *
  * The matrices live in the per-thread [[Workspace]] and are reused across
  * anchors, so a branch allocates only its C/X sets (plus a C-row surviving
  * copy in the uncommon case that some candidate pair is already consumed).
  */
final class AnchorContext(g: LocalGraph, rank: Array[Int], val u: Int,
                          needRanks: Boolean, ws: Workspace) {
  val nLoc: Int = g.degree(u)
  val words: Int = Bits.words(math.max(1, nLoc))
  /** neighbors of u in descending rank(u,·) order */
  val ids: Array[Int] = {
    // Sort keys (~rank << 32) | w: the ranks of u's edges are distinct.
    val keys = new Array[Long](nLoc)
    var i = 0
    while (i < nLoc) {
      val w = g.adj(g.offsets(u) + i)
      keys(i) = ((~rank(g.edgeId(u, w))).toLong << 32) | w
      i += 1
    }
    java.util.Arrays.sort(keys)
    val out = new Array[Int](nLoc)
    i = 0
    while (i < nLoc) { out(i) = keys(i).toInt; i += 1 }
    out
  }
  // Build H and, within the budget, the pair-rank matrix. ensureAnchor may
  // replace the shared buffers with larger ones, so capture them only
  // afterwards.
  private val denseRanks = nLoc <= AnchorContext.DenseRankMaxDegree
  ws.ensureAnchor(u, nLoc, words, denseRanks)
  private val h = ws.hFlat
  private val hRank = if (denseRanks) ws.hRank else null
  private val ranks =
    if (denseRanks) LocalRanks.fromDense(nLoc, hRank) else LocalRanks.fromEdgeIds(g, rank, ids)
  locally {
    val stamp = ws.nextStamp()
    var i = 0
    while (i < nLoc) { ws.markStamp(ids(i)) = stamp; ws.markLocal(ids(i)) = i; i += 1 }
    // Each pair i < q is found from the row of i, by scan or by probe.
    def link(i: Int, q: Int, e: Int): Unit = {
      Bits.setRow(h, i * words, q); Bits.setRow(h, q * words, i)
      if (hRank != null) {
        val er = rank(e)
        hRank(i * nLoc + q) = er; hRank(q * nLoc + i) = er
      }
    }
    i = 0
    while (i < nLoc) {
      val a = ids(i)
      if (g.degree(a) > AnchorContext.ProbeFactor * (nLoc - i)) {
        var q = i + 1
        while (q < nLoc) {
          val e = g.edgeId(a, ids(q))
          if (e >= 0) link(i, q, e)
          q += 1
        }
      } else {
        var p = g.offsets(a); val pe = g.offsets(a + 1)
        while (p < pe) {
          val b = g.adj(p)
          if (ws.markStamp(b) == stamp && ws.markLocal(b) > i)
            link(i, ws.markLocal(b), if (hRank != null) g.edgeId(a, b) else -1)
          p += 1
        }
      }
      i += 1
    }
  }

  /** Local index of a neighbor w of u — valid while this anchor's marks are
    * current (all of an anchor's branches run before the next anchor).
    */
  def localOf(w: Int): Int = ws.markLocal(w)

  /** Build the branch of edge e = (u, v). */
  def branch(e: Int): BranchResult = {
    val v = if (g.eu(e) == u) g.ev(e) else g.eu(e)
    val r = rank(e)
    val vL = localOf(v)
    val rowV = vL * words
    // A = N(u) ∩ N(v) = H row of v. Empty → maximal 2-clique {u, v}.
    var empty = true
    var i = 0
    while (empty && i < words) { if (h(rowV + i) != 0L) empty = false; i += 1 }
    if (empty) return BranchResult.Trivial(Array(u, v))
    // Candidates live in the prefix [0, vL): rank(u,w) > r there; keep those
    // with rank(v,w) > r too.
    val cWords = Bits.words(math.max(1, vL))
    val c = new Array[Long](cWords)
    var cCount = 0
    i = 0
    while (i < cWords) {
      var word = h(rowV + i)
      if ((i + 1) * 64 > vL) word &= (if ((vL & 63) == 0) 0L else -1L >>> (64 - (vL & 63)))
      while (word != 0L) {
        val b = java.lang.Long.numberOfTrailingZeros(word)
        val w = (i << 6) + b
        if (ranks.rank(vL, w) > r) { Bits.set(c, w); cCount += 1 }
        word &= word - 1
      }
      i += 1
    }
    val x = new Array[Long](words)
    i = 0
    while (i < words) {
      x(i) = h(rowV + i) & ~(if (i < cWords) c(i) else 0L)
      i += 1
    }
    if (cCount == 0) return BranchResult.Trivial(null) // all excluded: dead
    // Deleted candidate pairs (rank ≤ r): collect, then clone C rows into a
    // surviving matrix only if any exist.
    ws.pairLen = 0
    Bits.foreachBit(c) { a =>
      val rowA = a * words
      var k = 0
      while (k < cWords) {
        var word = h(rowA + k) & c(k)
        while (word != 0L) {
          val b = (k << 6) + java.lang.Long.numberOfTrailingZeros(word)
          if (b > a && ranks.rank(a, b) <= r) ws.addPair(a, b)
          word &= word - 1
        }
        k += 1
      }
    }
    val surv =
      if (ws.pairLen == 0) h
      else {
        val s = new Array[Long](nLoc * words)
        Bits.foreachBit(c) { a =>
          System.arraycopy(h, a * words, s, a * words, words)
        }
        var k = 0
        while (k < ws.pairLen) {
          Bits.clear2d(s, ws.pairI(k) * words, ws.pairJ(k))
          Bits.clear2d(s, ws.pairJ(k) * words, ws.pairI(k))
          k += 1
        }
        s
      }
    val bg = new BranchGraph(nLoc, words, surv, h, ids, if (needRanks) ranks else null)
    BranchResult.Branch(bg, c, x, Array(u, v))
  }
}

object AnchorContext {

  /** Largest anchor degree that gets a dense nLoc² pair-rank matrix
    * (9 MB of ints at the limit); larger anchors look ranks up by edge id.
    */
  val DenseRankMaxDegree = 1500

  /** H's row of a neighbor `a` is probed by edge lookups, not scanned, when
    * deg(a) exceeds this many times the count of later local vertices. A
    * lookup is a binary search over an edge list, some 30 times the cost of
    * one scan step: at 8, building DG/OR's and the sparse suite's branches
    * took 5–7% longer than with scans alone; at 32–256 it took the same.
    */
  val ProbeFactor = 32
}

object BranchGraph {

  /** Test/utility constructor: wrap a whole graph as one branch with full
    * adjacency (C = caller's choice), single (non-dual) adjacency.
    */
  def ofWholeGraph(g: LocalGraph): BranchGraph = {
    val n = g.n
    val words = Bits.words(math.max(1, n))
    val flat = new Array[Long](n * words)
    var e = 0
    while (e < g.m) {
      Bits.setRow(flat, g.eu(e) * words, g.ev(e))
      Bits.setRow(flat, g.ev(e) * words, g.eu(e))
      e += 1
    }
    new BranchGraph(n, words, flat, flat, Array.tabulate(n)(identity), null)
  }

  /** Branch for level-1 *vertex* branching at vertex `v` under the
    * degeneracy order (BK_Degen-style split): universe = N(v); candidates =
    * neighbors later in the order, exclusions = earlier. Single adjacency.
    */
  def forVertexBranch(g: LocalGraph, pos: Array[Int], v: Int, ws: Workspace): BranchResult = {
    val nLoc = g.degree(v)
    if (nLoc == 0) return BranchResult.Trivial(Array(v)) // isolated: 1-clique
    val ids = ws.idsBuf
    val isCand = ws.flagBuf
    var cCount = 0
    var i = 0
    g.foreachNeighbor(v) { w =>
      ids(i) = w
      isCand(i) = pos(w) > pos(v)
      if (isCand(i)) cCount += 1
      i += 1
    }
    if (cCount == 0) return BranchResult.Trivial(null) // all neighbors earlier: dead
    val words = Bits.words(nLoc)
    val cWords = Bits.words(cCount)
    val newIdx = ws.newIdxBuf
    var nc = 0; var nx = cCount
    i = 0
    while (i < nLoc) {
      if (isCand(i)) { newIdx(i) = nc; nc += 1 } else { newIdx(i) = nx; nx += 1 }
      i += 1
    }
    val adj = new Array[Long](nLoc * words)
    val c = new Array[Long](cWords)
    i = 0
    while (i < cCount) { Bits.set(c, i); i += 1 }
    val x = new Array[Long](words)
    i = cCount
    while (i < nLoc) { Bits.set(x, i); i += 1 }
    i = 0
    while (i < nLoc) {
      if (isCand(i)) {
        val a = ids(i)
        val offI = newIdx(i) * words
        if (g.degree(a) > 8 * nLoc) {
          var q = 0
          while (q < nLoc) {
            if (q != i && (!isCand(q) || q > i) && g.hasEdge(a, ids(q))) {
              Bits.setRow(adj, offI, newIdx(q)); Bits.setRow(adj, newIdx(q) * words, newIdx(i))
            }
            q += 1
          }
        } else {
          var p = g.offsets(a); val pe = g.offsets(a + 1)
          var q = 0
          while (p < pe && q < nLoc) {
            val na = g.adj(p); val nb = ids(q)
            if (na == nb) {
              if (!isCand(q) || q > i) {
                Bits.setRow(adj, offI, newIdx(q)); Bits.setRow(adj, newIdx(q) * words, newIdx(i))
              }
              p += 1; q += 1
            } else if (na < nb) p += 1
            else q += 1
          }
        }
      }
      i += 1
    }
    val localIds = new Array[Int](nLoc)
    i = 0
    while (i < nLoc) { localIds(newIdx(i)) = ids(i); i += 1 }
    BranchResult.Branch(new BranchGraph(nLoc, words, adj, adj, localIds, null), c, x, Array(v))
  }
}
