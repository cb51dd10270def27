package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.mce.{MceConfig, MceStats}
import scala.collection.mutable.ArrayBuffer

/** The benchmark: one workload, one seed, one closed loop (one client, one
  * enumeration at a time). See perfbench/README.md for the metrics.
  *
  * {{{
  * Main --workload dense-hard --seed 1 --seconds 22 --trace 0 --out-dir DIR
  *      [--small] [--corrupt-expected]
  * }}}
  */
object Main {

  final case class Args(workload: String = "", seed: Long = Workloads.DefaultSeed, seconds: Double = 10,
                        trace: Boolean = false, small: Boolean = false, corrupt: Boolean = false,
                        outDir: String = ".bench_build/perfbench")

  def parse(args: List[String], a: Args = Args()): Args = args match {
    case "--workload" :: v :: rest => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, a.copy(trace = v == "1"))
    case "--out-dir" :: v :: rest => parse(rest, a.copy(outDir = v))
    case "--small" :: rest => parse(rest, a.copy(small = true))
    case "--corrupt-expected" :: rest => parse(rest, a.copy(corrupt = true))
    case Nil => a
    case other => throw new IllegalArgumentException(s"unexpected arguments: ${other.mkString(" ")}")
  }

  val configs: Seq[(String, MceConfig)] = Seq("hbbmcpp" -> MceConfig.hbbmcPP, "rdegen" -> MceConfig.rDegen)

  val SetupMinReps = 5
  val SetupMaxReps = 25
  val SetupMinSeconds = 1.0

  /** An enumeration that runs longer than this counts as failed. */
  val TimeLimitMs = 60000.0

  /** Enumerations attempted and failed, and why each failure happened. */
  final class Ledger {
    var attempted = 0L
    val failures = new ArrayBuffer[String]()
    def fail(msg: String): Unit = { failures += msg; System.err.println(s"perfbench: CHECK FAILED: $msg") }
  }

  private def sortedQuartiles(xs: Seq[Double]): (Double, Double, Double) = {
    val s = xs.sorted.toArray
    def at(p: Double): Double = {
      val r = p * (s.length - 1)
      val lo = math.floor(r).toInt; val hi = math.ceil(r).toInt
      s(lo) + (s(hi) - s(lo)) * (r - lo)
    }
    (at(0.25), at(0.5), at(0.75))
  }

  private def fmt(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else java.math.BigDecimal.valueOf(x).toPlainString

  /** Median, quartiles, extremes and count of `xs`, and `xs` itself unless
    * it has more than 100 values.
    */
  private def summary(xs: Seq[Double]): String = {
    val (q1, med, q3) = sortedQuartiles(xs)
    val values = if (xs.size > 100) "" else s""","values":${xs.map(fmt).mkString("[", ",", "]")}"""
    s"""{"median":${fmt(med)},"q1":${fmt(q1)},"q3":${fmt(q3)},"min":${fmt(xs.min)},"max":${fmt(xs.max)},"n":${xs.size}$values}"""
  }

  private def key(s: MceStats, checksum: Option[Long]): (Long, Long, Int, Option[Long]) =
    (s.cliques, s.sumSize, s.maxSize, checksum)

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    val wl = Workloads.byName(a.workload)
    val ledger = new Ledger
    val nproc = Runtime.getRuntime.availableProcessors
    val localDir = new java.io.File(a.outDir, "spark-local").getAbsolutePath

    // ---- set-up: generate the inputs and build their CSR. Untraced runs
    // repeat it at least SetupMinReps times, and until the repetitions after
    // the first (cold) one took SetupMinSeconds, so a cheap set-up gets more
    // samples. Measured in CPU time of this thread, like the passes, and
    // scaled to the nominal speed.
    val scale = if (a.trace) null else new SpeedScale
    var inputs: Seq[Input] = Nil
    val setupS = ArrayBuffer[Double]()
    val setupScaledS = ArrayBuffer[Double]()
    def warmSetupS = setupS.drop(1).sum
    while (setupS.isEmpty || (!a.trace && !a.small && setupS.size < SetupMaxReps &&
        (setupS.size < SetupMinReps || warmSetupS < SetupMinSeconds))) {
      val c0 = Enumerate.threadCpuNanos()
      inputs = wl.make(a.seed, a.small)
      setupS += (Enumerate.threadCpuNanos() - c0) / 1e9
      if (scale != null) setupScaledS += scale.scaled(setupS.last * 1000) / 1000
    }
    // the traced run also observes DistMCE.run on a local[nproc] session
    val spark = if (a.trace) Enumerate.startSpark(nproc, localDir) else null
    try {
      run(a, wl, ledger, spark, scale, inputs, setupS.toSeq, setupScaledS.toSeq, nproc)
    } finally if (spark != null) spark.stop()
    sys.exit(if (ledger.failures.isEmpty) 0 else 1)
  }

  private def run(a: Args, wl: Workload, ledger: Ledger, spark: SparkSession, scale: SpeedScale,
                  inputs: Seq[Input], setupS: Seq[Double], setupScaledS: Seq[Double], nproc: Int): Unit = {
    // ---- verification pass (untimed), which also warms each configuration
    // on this workload: every configuration must agree on every input
    val verifyPasses: Map[String, Pass] = configs.map { case (name, cfg) =>
      name -> checkedPass(ledger, inputs, name)(Enumerate.localPass(inputs, cfg, checksum = true))
    }.toMap
    val verified: Map[String, Seq[Outcome]] = verifyPasses.map { case (k, p) => k -> p.outcomes }
    val reference: Map[String, Seq[MceStats]] = verified.map { case (k, v) => k -> v.map(_.stats) }
    inputs.indices.foreach { i =>
      val keys = configs.map { case (name, _) => name -> key(verified(name)(i).stats, verified(name)(i).checksum) }
      if (keys.map(_._2).distinct.size != 1)
        ledger.fail(s"${inputs(i).name}: configurations disagree on (cliques, sumSize, maxSize, checksum): $keys")
      inputs(i).expected.foreach { e0 =>
        val e = if (a.corrupt) e0.copy(cliques = e0.cliques + 1) else e0
        val s = verified(configs.head._1)(i).stats
        if (s.cliques != e.cliques) ledger.fail(s"${inputs(i).name}: ${s.cliques} cliques, expected ${e.cliques}")
        e.sumSize.foreach(x => if (s.sumSize != x) ledger.fail(s"${inputs(i).name}: sumSize ${s.sumSize}, expected $x"))
        e.maxSize.foreach(x => if (s.maxSize != x) ledger.fail(s"${inputs(i).name}: maxSize ${s.maxSize}, expected $x"))
      }
    }

    // A timed sample of `times` passes, checked against the verified
    // statistics of the same configuration, so #Calls must repeat exactly.
    def pass(name: String, cfg: MceConfig, times: Int): Pass =
      checkedPass(ledger, inputs, name, reference.get(name))(
        Enumerate.localPass(inputs, cfg, checksum = false, times, scale))

    val gitSha = sys.props.getOrElse("perfbench.git_sha", "unknown")
    val inputJson = inputs.indices.map { i =>
      val in = inputs(i); val s = reference(configs.head._1)(i)
      s"""{"name":"${in.name}","n":${in.g.n},"m":${in.g.m},"cliques":${s.cliques},""" +
        configs.map { case (c, _) => s""""${c}_calls":${reference(c)(i).calls}""" }.mkString(",") +
        s""","checksum":"${verified(configs.head._1)(i).checksum.map(java.lang.Long.toHexString).getOrElse("")}"}"""
    }.mkString("[", ",", "]")
    val env = s""""workload":"${wl.name}","seed":${a.seed},"nproc":$nproc,""" +
      s""""mode":"Engine.runLocal on one thread, closed loop",""" +
      s""""timing":"thread CPU time; metrics scaled to the nominal speed",""" +
      s""""heap_max_mb":${Runtime.getRuntime.maxMemory / 1048576},""" +
      s""""spark_driver_mem":"${sys.env.getOrElse("SPARK_DRIVER_MEM", "")}","git_sha":"$gitSha",""" +
      s""""source_sha":"${sys.props.getOrElse("perfbench.source_sha", "unknown")}","inputs":$inputJson"""
    println(s"perfbench: ${wl.name} seed=${a.seed} inputs: " +
      inputs.map(in => s"${in.name}(n=${in.g.n}, m=${in.g.m})").mkString(" "))

    val metrics: Seq[(String, Double, String)] =
      if (a.trace) tracedRun(a, wl, ledger, spark, inputs, reference, env)
      else timedRun(a, ledger, scale, setupS, setupScaledS, verifyPasses.map { case (k, p) => k -> p.ms }, pass, env)

    val attempted = math.max(1L, ledger.attempted)
    val failed = math.min(attempted, ledger.failures.size.toLong)
    println(s"perfbench: attempted=$attempted failed=$failed failed_share=${fmt(failed.toDouble / attempted)}")
    val body = metrics.map { case (n, v, u) => s""""$n":{"value":${fmt(v)},"unit":"$u"}""" }.mkString(",")
    println(s"""{"correct":${ledger.failures.isEmpty},"attempted":$attempted,"failed":$failed,"metrics":{$body}}""")
  }

  /** Runs one pass, counting its enumerations and failing those that throw,
    * exceed the time limit, or report other statistics than `expected`.
    */
  private def checkedPass(ledger: Ledger, inputs: Seq[Input], name: String,
                          expected: Option[Seq[MceStats]] = None)(p: => Pass): Pass = {
    val result = try p catch {
      case e: Throwable =>
        ledger.fail(s"$name threw ${e.getClass.getName}: ${e.getMessage}")
        throw e
    }
    ledger.attempted += result.outcomes.size
    if (result.wallMs > TimeLimitMs * inputs.size) ledger.fail(f"$name pass took ${result.wallMs}%.0f ms")
    expected.foreach(e => result.outcomes.grouped(inputs.size).foreach(_.zip(e).zip(inputs).foreach {
      case ((o, s), in) => if (o.stats != s) ledger.fail(s"${in.name}: $name reported ${o.stats}, verified run reported $s")
    }))
    result
  }

  private def timedRun(a: Args, ledger: Ledger, scale: SpeedScale, setupS: Seq[Double], setupScaledS: Seq[Double],
                       verifyMs: Map[String, Double], pass: (String, MceConfig, Int) => Pass,
                       env: String): Seq[(String, Double, String)] = {
    // Each configuration was warmed on this workload by its verification
    // pass, and is warmed once more by an untimed round with the count-only
    // sink of the timed passes. A round takes one sample of each
    // configuration. A sample of a configuration at least five times
    // faster than the slowest one enumerates each input several times back
    // to back, so every sample covers comparable work: a single 12 ms RDegen
    // pass on hub-star reads 12 or 18 ms depending on what else the machine
    // does during it.
    val slowest = verifyMs.values.max
    val times = verifyMs.map { case (k, ms) =>
      k -> (if (slowest < 5 * ms) 1 else math.min(100, math.round(slowest / (2 * ms)).toInt))
    }
    configs.foreach { case (k, cfg) => pass(k, cfg, times(k)) }
    val samples = configs.map { case (k, _) => k -> ArrayBuffer[Pass]() }.toMap
    val t0 = System.nanoTime()
    def elapsedMs = (System.nanoTime() - t0) / 1e6
    var rounds = 0
    // rounds continue while another one would end closer to the measuring
    // time than stopping now would (at least one round)
    var roundMs = 0.0
    while (rounds == 0 || elapsedMs + roundMs / 2 < a.seconds * 1000) {
      val r0 = elapsedMs
      configs.foreach { case (k, cfg) => samples(k) += pass(k, cfg, times(k)) }
      roundMs = elapsedMs - r0
      rounds += 1
    }
    val measuredS = elapsedMs / 1000
    val out = ArrayBuffer[(String, Double, String)]()
    val detail = ArrayBuffer[String]()
    // the metrics are at the nominal speed; the raw CPU and wall-clock
    // times of the same samples are in the detail line
    out += (("setup_s", sortedQuartiles(setupScaledS)._2, "s"))
    detail += s""""setup_s":${summary(setupScaledS)},"setup_cpu_s":${summary(setupS)}"""
    detail += s""""yardstick_ms":${summary(scale.readings.toSeq)}"""
    configs.foreach { case (k, _) =>
      val scaled = samples(k).map(_.scaledMs).toSeq
      out += ((s"${k}_ms", sortedQuartiles(scaled)._2, "ms"))
      detail += s""""${k}_ms":${summary(scaled)},"${k}_passes_per_sample":${times(k)}"""
      detail += s""""${k}_cpu_ms":${summary(samples(k).map(_.ms).toSeq)}"""
      detail += s""""${k}_wall_ms":${summary(samples(k).map(_.wallMs).toSeq)}"""
      detail += s""""${k}_alloc_mb":${summary(samples(k).map(_.allocBytes / 1048576.0).toSeq)}"""
    }
    println(s"""perfbench-detail: {$env,"measured_s":${fmt(measuredS)},"rounds":$rounds,""" +
      s""""failures":${ledger.failures.map(f => "\"" + f.replace("\"", "'") + "\"").mkString("[", ",", "]")},""" +
      s"""${detail.mkString(",")}}""")
    out.toSeq
  }

  private def tracedRun(a: Args, wl: Workload, ledger: Ledger, spark: SparkSession, inputs: Seq[Input],
                        reference: Map[String, Seq[MceStats]], env: String): Seq[(String, Double, String)] = {
    val listener = new TaskListener
    spark.sparkContext.addSparkListener(listener)
    val spans = new Spans
    // untraced reference pass, sequential like the paper's runs
    val gc0 = Enumerate.gcMillis()
    val local = checkedPass(ledger, inputs, "hbbmcpp", reference.get("hbbmcpp"))(
      Enumerate.localPass(inputs, MceConfig.hbbmcPP, checksum = false))
    val gcMs = (Enumerate.gcMillis() - gc0).toDouble
    val rdegen = checkedPass(ledger, inputs, "rdegen", reference.get("rdegen"))(
      Enumerate.localPass(inputs, MceConfig.rDegen, checksum = false))
    // warm the distributed path on this workload
    checkedPass(ledger, inputs, "dist hbbmcpp", reference.get("hbbmcpp"))(Enumerate.distPass(spark, inputs))
    val r = Trace.run(spans, spark, listener, inputs, local.wallMs, local.outcomes.map(_.stats), gcMs)
    ledger.attempted += 2 * inputs.size // the traced and the distributed pass
    r.problems.foreach(ledger.fail)
    val file = new java.io.File(a.outDir, s"trace/${wl.name}-seed${a.seed}.jsonl")
    spans.write(file)
    println(s"""perfbench-detail: {$env,"untraced_hbbmcpp_wall_ms":${fmt(local.wallMs)},"spans":${spans.size},""" +
      s""""span_file":"${file.getPath}"}""")
    // Allocation per pass depends on how C2 compiles the kernel's closures:
    // some JVMs scalar-replace their captured variables and some do not
    // (RDegen on DG+OR: 782 or 994 MiB), so it is a per-layer figure.
    val alloc = Seq("hbbmcpp_alloc_mb" -> local, "rdegen_alloc_mb" -> rdegen)
      .map { case (n, p) => (n, p.allocBytes / 1048576.0, "MiB") }
    (r.metrics.toSeq.map { case (n, m) => (n, m.value, m.unit) } ++ alloc).sortBy(_._1)
  }
}
