package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.dist.DistMCE
import repro.mce._
import scala.jdk.CollectionConverters._

/** Order-independent checksum of the emitted cliques: each clique's sorted
  * vertex ids are hashed, and the hashes are summed.
  */
final class ChecksumSink extends CliqueSink {
  var sum: Long = 0L
  private var buf = new Array[Int](64)
  override def emit(vertices: Array[Int], len: Int): Unit = {
    if (buf.length < len) buf = new Array[Int](2 * len)
    System.arraycopy(vertices, 0, buf, 0, len)
    java.util.Arrays.sort(buf, 0, len)
    var h = Enumerate.mix(len.toLong)
    var i = 0
    while (i < len) { h = Enumerate.mix(h ^ buf(i)); i += 1 }
    sum += h
  }
}

/** Result of one enumeration of one input: the program's statistics and,
  * for a verification pass, the clique checksum.
  */
final case class Outcome(stats: MceStats, checksum: Option[Long])

/** A sample of one configuration: one or more passes over all inputs of a
  * workload. CPU time of the enumerating thread, wall-clock, the CPU time
  * at the nominal speed (see [[SpeedScale]]) and the bytes that thread
  * allocated are per pass.
  */
final case class Pass(ms: Double, wallMs: Double, scaledMs: Double, allocBytes: Long, outcomes: Seq[Outcome])

object Enumerate {

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  val nullSink: CliqueSink = new CliqueSink {
    override def emit(vertices: Array[Int], len: Int): Unit = ()
  }

  /** splitmix64 finalizer */
  def mix(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  def threadCpuNanos(): Long = threads.getCurrentThreadCpuTime

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** `Engine.runLocal` over every input on the calling thread, each input
    * `times` times back to back; times and allocation are per repetition,
    * and the outcomes of every repetition are kept, repetition by
    * repetition. With `checksum`, cliques also feed a [[ChecksumSink]]
    * (verification pass); otherwise the sink only counts, as in the timed
    * passes. With a `scale`, the repetitions of each input are one timed
    * piece, bracketed by yardstick readings.
    */
  def localPass(inputs: Seq[Input], cfg: MceConfig, checksum: Boolean, times: Int = 1,
                scale: SpeedScale = null): Pass = {
    System.gc()
    if (scale != null) scale.mark()
    val a0 = threadAllocated()
    var cpuMs, wallMs, scaledMs = 0.0
    val perInput = inputs.map { in =>
      val t0 = System.nanoTime()
      val c0 = threadCpuNanos()
      val outcomes = (1 to times).map { _ =>
        if (checksum) {
          val sink = new ChecksumSink
          Outcome(Engine.runLocal(in.g, cfg, sink), Some(sink.sum))
        } else Outcome(Engine.runLocal(in.g, cfg, nullSink), None)
      }
      val ms = (threadCpuNanos() - c0) / 1e6
      wallMs += (System.nanoTime() - t0) / 1e6
      cpuMs += ms
      scaledMs += (if (scale == null) ms else scale.scaled(ms))
      outcomes
    }
    Pass(cpuMs / times, wallMs / times, scaledMs / times, (threadAllocated() - a0) / times,
      (0 until times).flatMap(r => perInput.map(_(r))))
  }

  /** HBBMC++ through `DistMCE.run` over every input; times are wall-clock. */
  def distPass(spark: SparkSession, inputs: Seq[Input]): Pass = {
    val t0 = System.nanoTime()
    val outcomes = inputs.map(in => Outcome(DistMCE.run(spark, in.g, MceConfig.hbbmcPP), None))
    val ms = (System.nanoTime() - t0) / 1e6
    Pass(ms, ms, ms, 0L, outcomes)
  }

  /** A local-mode SparkSession with one executor thread per core, keeping
    * its scratch files under `localDir`.
    */
  def startSpark(cores: Int, localDir: String): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .getOrCreate()
}
