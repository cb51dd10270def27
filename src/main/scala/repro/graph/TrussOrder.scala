package repro.graph

/** An ordering of the canonical edges of a graph.
  *
  * @param rank  rank(edgeId) = position in the ordering (0-based; smaller = earlier)
  * @param bound max over all edges e of the number of common neighbors w of
  *              e's endpoints whose both cross edges are ranked *after* e —
  *              i.e. the size bound of the level-1 candidate graphs. For the
  *              truss-based ordering this is the paper's τ.
  */
final case class EdgeOrderResult(rank: Array[Int], bound: Int) extends Serializable

/** Truss-based edge ordering (Wang, Yu, Long — EBBkC [19], reused by HBBMC).
  *
  * Greedy procedure: iteratively remove from the remaining graph the edge
  * whose endpoints have the fewest common neighbors (its *support*) and
  * append it to the ordering. The maximum support at removal time is τ,
  * which bounds the candidate-graph size of every sub-branch produced by
  * edge-oriented branching, and satisfies τ < δ on graphs with at least
  * one triangle (strictly, τ ≤ δ − 1 — see [19]).
  *
  * Runs in O(δm), as the paper's bound assumes: triangles are listed over
  * degeneracy-oriented out-neighbor lists (|N⁺(v)| ≤ δ), and peeling moves
  * an edge between support bins in O(1) (Wang & Cheng, PVLDB 2012). Ties go
  * to the edge that entered its bin last (at the start, the highest id).
  */
object TrussOrder {

  def compute(g: LocalGraph): EdgeOrderResult = {
    val n = g.n; val m = g.m
    // Out-neighbor CSR: each edge and its id at the endpoint earlier in the
    // degeneracy order; filled in id order, so each N⁺(x) is sorted. Both
    // CSRs are filled by counting sort with x's cursor at off(x + 1).
    val pos = Degeneracy.compute(g).pos
    def tail(e: Int): Int = if (pos(g.eu(e)) < pos(g.ev(e))) g.eu(e) else g.ev(e)
    val outOff = new Array[Int](n + 1)
    var e = 0
    while (e < m) { outOff(tail(e) + 1) += 1; e += 1 }
    toCursors(outOff, n)
    val outNbr = new Array[Int](m); val outEid = new Array[Int](m)
    e = 0
    while (e < m) {
      val x = tail(e); val p = outOff(x + 1)
      outNbr(p) = g.eu(e) + g.ev(e) - x; outEid(p) = e; outOff(x + 1) = p + 1
      e += 1
    }
    // List each triangle u→v→w once: mark N⁺(u) with edge ids, then scan
    // N⁺(v) for each v in N⁺(u). Pass 0 counts each edge's triangles (its
    // support); pass 1 stores, per edge, the other two edges of each one.
    val sup = new Array[Int](m)
    val triOff = new Array[Int](m + 1)
    var other: Array[Int] = null
    val mark = new Array[Int](n)
    java.util.Arrays.fill(mark, -1)
    var pass = 0
    while (pass < 2) {
      var u = 0
      while (u < n) {
        var p = outOff(u); val pe = outOff(u + 1)
        while (p < pe) { mark(outNbr(p)) = outEid(p); p += 1 }
        p = outOff(u)
        while (p < pe) {
          val v = outNbr(p); val eUV = outEid(p)
          var q = outOff(v); val qe = outOff(v + 1)
          while (q < qe) {
            val eUW = mark(outNbr(q))
            if (eUW >= 0) {
              val eVW = outEid(q)
              if (pass == 0) { sup(eUV) += 1; sup(eUW) += 1; sup(eVW) += 1 }
              else {
                append(triOff, other, eUV, eUW, eVW)
                append(triOff, other, eUW, eUV, eVW)
                append(triOff, other, eVW, eUV, eUW)
              }
            }
            q += 1
          }
          p += 1
        }
        p = outOff(u)
        while (p < pe) { mark(outNbr(p)) = -1; p += 1 }
        u += 1
      }
      if (pass == 0) {
        System.arraycopy(sup, 0, triOff, 1, m)
        other = new Array[Int](2 * toCursors(triOff, m))
      }
      pass += 1
    }
    // Peel: rank the live edge of least support, then take one support off
    // the two other edges of each of its live triangles. Each support (< n)
    // has a bin, a doubly linked list used as a stack. Ranked: support -1.
    val head = new Array[Int](n)
    java.util.Arrays.fill(head, -1)
    val next = new Array[Int](m); val prev = new Array[Int](m)
    def push(x: Int): Unit = {
      val h = head(sup(x)); next(x) = h; prev(x) = -1; head(sup(x)) = x
      if (h >= 0) prev(h) = x
    }
    def unlink(x: Int): Unit = {
      if (prev(x) >= 0) next(prev(x)) = next(x) else head(sup(x)) = next(x)
      if (next(x) >= 0) prev(next(x)) = prev(x)
    }
    e = 0
    while (e < m) { push(e); e += 1 }
    val rank = new Array[Int](m)
    var tau = 0; var cur = 0; var r = 0
    while (r < m) {
      while (head(cur) < 0) cur += 1
      val x = head(cur); unlink(x); sup(x) = -1
      rank(x) = r; r += 1; tau = math.max(tau, cur)
      var k = 2 * triOff(x); val ke = 2 * triOff(x + 1)
      while (k < ke) {
        val e1 = other(k); val e2 = other(k + 1)
        if (sup(e1) >= 0 && sup(e2) >= 0) {
          unlink(e1); sup(e1) -= 1; push(e1)
          unlink(e2); sup(e2) -= 1; push(e2)
          cur = math.min(cur, math.min(sup(e1), sup(e2)))
        }
        k += 2
      }
    }
    EdgeOrderResult(rank, tau)
  }

  /** Turn the counts held at off(x + 1) into start offsets; return the total. */
  private def toCursors(off: Array[Int], len: Int): Int = {
    var s = 0; var x = 0
    while (x < len) { val c = off(x + 1); off(x + 1) = s; s += c; x += 1 }
    s
  }

  /** Append the pair (a, b) to the pair slots of x. */
  @inline private def append(off: Array[Int], out: Array[Int], x: Int, a: Int, b: Int): Unit = {
    val p = 2 * off(x + 1); out(p) = a; out(p + 1) = b; off(x + 1) += 1
  }
}

/** Alternative level-1 edge orderings (paper Table VI) plus a generic
  * evaluator for the candidate-size bound achieved by any ordering.
  */
object EdgeOrders {

  /** The paper's default: truss-based ordering, bound = τ. */
  def truss(g: LocalGraph): EdgeOrderResult = TrussOrder.compute(g)

  /** `HBBMC-dgn`: edges sorted "alphabetically" by the degeneracy positions
    * of their endpoints — each edge oriented (earlier pos, later pos), then
    * sorted lexicographically.
    */
  def degeneracyLex(g: LocalGraph, deg: DegeneracyResult): EdgeOrderResult = {
    val keys = Array.tabulate(g.m) { e =>
      val pu = deg.pos(g.eu(e)); val pv = deg.pos(g.ev(e))
      val lo = math.min(pu, pv).toLong; val hi = math.max(pu, pv).toLong
      (lo << 32) | hi
    }
    fromKeys(g, keys)
  }

  /** `HBBMC-mdg`: edges in non-decreasing order of the trivial support
    * upper bound min(deg(u), deg(v)) − 1.
    */
  def minDegree(g: LocalGraph): EdgeOrderResult = {
    val keys = Array.tabulate(g.m) { e =>
      val d = math.min(g.degree(g.eu(e)), g.degree(g.ev(e))).toLong
      (d << 32) | e.toLong // edge id tie-break keeps the keys distinct
    }
    fromKeys(g, keys)
  }

  /** Rank edges by ascending key; the keys must be distinct. */
  private def fromKeys(g: LocalGraph, keys: Array[Long]): EdgeOrderResult = {
    val sorted = keys.clone(); java.util.Arrays.sort(sorted)
    val rank = new Array[Int](g.m)
    var e = 0
    while (e < g.m) { rank(e) = java.util.Arrays.binarySearch(sorted, keys(e)); e += 1 }
    EdgeOrderResult(rank, achievedBound(g, rank))
  }

  /** The candidate-size bound an ordering actually achieves: for each edge e,
    * count the common neighbors w of its endpoints with both cross edges
    * ranked after e; take the max. For the truss ordering this equals τ.
    */
  def achievedBound(g: LocalGraph, rank: Array[Int]): Int = {
    var best = 0
    var e = 0
    while (e < g.m) {
      val u = g.eu(e); val v = g.ev(e)
      val r = rank(e)
      var c = 0
      val common = g.commonNeighbors(u, v)
      var i = 0
      while (i < common.length) {
        val w = common(i)
        if (rank(g.edgeId(u, w)) > r && rank(g.edgeId(v, w)) > r) c += 1
        i += 1
      }
      best = math.max(best, c)
      e += 1
    }
    best
  }
}
