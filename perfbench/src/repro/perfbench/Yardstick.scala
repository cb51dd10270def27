package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** A fixed piece of work that measures how fast the machine is at the
  * moment: Bron–Kerbosch with Tomita pivoting over one fixed random graph,
  * on bitsets, in the harness's own code, so no change to the program can
  * change it. It runs loops with an explicit stack over two flat arrays, no
  * recursion and no allocation, so that every JVM compiles and lays it out
  * alike.
  */
object Yardstick {
  val N = 256
  val EdgePercent = 30
  val GraphSeed = 0x2EFEL

  /** Maximal cliques of the graph; every enumeration must find them all. */
  val Cliques = 50968L

  /** Enumerations in one reading. */
  val Repeats = 2

  /** CPU time of one reading at the nominal speed. Readings on the machine
    * the benchmark was built on (4 vCPUs of a shared Intel Xeon) had run
    * medians of 17 to 26 ms.
    */
  val NominalMs = 25.0

  private val W = (N + 63) / 64
  // row u of the adjacency matrix is adj(u * W until (u + 1) * W)
  private val adj: Array[Long] = {
    val rnd = new scala.util.Random(GraphSeed)
    val a = new Array[Long](N * W)
    for (u <- 0 until N; v <- u + 1 until N if rnd.nextInt(100) < EdgePercent) {
      a(u * W + v / 64) |= 1L << (v % 64)
      a(v * W + u / 64) |= 1L << (u % 64)
    }
    a
  }
  // per recursion depth d: P, X and the candidates left, each W words at
  // (3 * d + k) * W for k = 0, 1, 2
  private val stack = new Array[Long](3 * (N + 1) * W)

  /** Number of maximal cliques of the graph. Not thread-safe. */
  def enumerate(): Long = {
    val s = stack
    java.util.Arrays.fill(s, 0L)
    var i = 0
    while (i < N) { s(i / 64) |= 1L << (i % 64); i += 1 }
    var found = 0L
    var d = 0
    choose(0)
    while (d >= 0) {
      val cand = (3 * d + 2) * W
      var w = 0
      while (w < W && s(cand + w) == 0L) w += 1
      if (w == W) d -= 1
      else {
        val bit = java.lang.Long.numberOfTrailingZeros(s(cand + w))
        val v = w * 64 + bit
        s(cand + w) &= ~(1L << bit)
        val p = 3 * d * W; val x = p + W; val np = p + 3 * W; val nx = np + W
        var pEmpty = true; var xEmpty = true
        var k = 0
        while (k < W) {
          val pk = s(p + k) & adj(v * W + k); val xk = s(x + k) & adj(v * W + k)
          s(np + k) = pk; s(nx + k) = xk
          if (pk != 0L) pEmpty = false
          if (xk != 0L) xEmpty = false
          k += 1
        }
        s(p + w) &= ~(1L << bit)
        s(x + w) |= 1L << bit
        if (pEmpty) { if (xEmpty) found += 1 }
        else { d += 1; choose(d) }
      }
    }
    found
  }

  /** Sets the candidates of depth `d`: P minus the neighbours of a pivot,
    * the vertex of P ∪ X with most neighbours in P.
    */
  private def choose(d: Int): Unit = {
    val s = stack
    val p = 3 * d * W; val x = p + W; val cand = x + W
    var pivot = -1; var best = -1
    var w = 0
    while (w < W) {
      var bits = s(p + w) | s(x + w)
      while (bits != 0L) {
        val u = w * 64 + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        var c = 0; var k = 0
        while (k < W) { c += java.lang.Long.bitCount(s(p + k) & adj(u * W + k)); k += 1 }
        if (c > best) { best = c; pivot = u }
      }
      w += 1
    }
    var k = 0
    while (k < W) { s(cand + k) = s(p + k) & ~adj(pivot * W + k); k += 1 }
  }

  /** CPU ms of one reading (`Repeats` enumerations) on the calling thread. */
  def readMs(): Double = {
    val c0 = Enumerate.threadCpuNanos()
    var k = 0
    while (k < Repeats) {
      val c = enumerate()
      if (Cliques >= 0 && c != Cliques) throw new IllegalStateException(s"yardstick found $c cliques, expected $Cliques")
      k += 1
    }
    (Enumerate.threadCpuNanos() - c0) / 1e6
  }
}

/** Scales CPU times to the nominal speed.
  *
  * The shared machine this benchmark was built on changes speed by up to
  * 45% within seconds, and by as much between runs minutes apart: one pass
  * of RDegen on dense-hard read 1.1 s and 1.6 s in consecutive samples of
  * one run. So each timed piece of work is bracketed by yardstick readings
  * on the same thread, right before and right after it, and its CPU time is
  * scaled by `NominalMs / (mean of the two readings)`. Pieces should be
  * short, so that the machine rarely changes speed within one.
  */
final class SpeedScale {
  (1 to 40).foreach(_ => Yardstick.enumerate()) // compile the yardstick first
  val readings = ArrayBuffer[Double]()
  mark()

  /** Takes a reading; call it right before a timed piece that follows
    * untimed work.
    */
  def mark(): Unit = readings += Yardstick.readMs()

  /** `ms`, the CPU time of a piece that ran right after the last reading,
    * at the nominal speed. Takes the reading after the piece.
    */
  def scaled(ms: Double): Double = {
    val before = readings.last
    mark()
    ms * Yardstick.NominalMs * 2 / (before + readings.last)
  }
}
