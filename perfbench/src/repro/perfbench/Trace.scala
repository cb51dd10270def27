package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.dist.DistMCE
import repro.graph.{Degeneracy, EdgeOrders}
import repro.mce._

/** Spans kept in memory until the run ends: name, parent (-1 for a root),
  * start and end in nanoseconds. A level-1 unit span also carries the
  * build and solve nanoseconds the engine's `Counters` attributed to it,
  * which count as its children when self time is computed.
  */
final class Spans {
  private val names = new scala.collection.mutable.ArrayBuffer[String]()
  private val nameIds = new scala.collection.mutable.HashMap[String, Int]()
  private var name = new Array[Int](1024)
  private var parent = new Array[Int](1024)
  private var start = new Array[Long](1024)
  private var end = new Array[Long](1024)
  private var build = new Array[Long](1024)
  private var solve = new Array[Long](1024)
  var size = 0

  def add(n: String, p: Int, t0: Long, t1: Long, buildNs: Long = 0L, solveNs: Long = 0L): Int = {
    if (size == name.length) {
      val c = 2 * size
      name = java.util.Arrays.copyOf(name, c); parent = java.util.Arrays.copyOf(parent, c)
      start = java.util.Arrays.copyOf(start, c); end = java.util.Arrays.copyOf(end, c)
      build = java.util.Arrays.copyOf(build, c); solve = java.util.Arrays.copyOf(solve, c)
    }
    name(size) = nameIds.getOrElseUpdate(n, { names += n; names.length - 1 })
    parent(size) = p; start(size) = t0; end(size) = t1
    build(size) = buildNs; solve(size) = solveNs
    size += 1
    size - 1
  }

  def begin(n: String, p: Int): Int = add(n, p, System.nanoTime(), -1L)
  def finish(id: Int): Unit = end(id) = System.nanoTime()
  def nanos(id: Int): Long = end(id) - start(id)

  def timed[A](n: String, p: Int)(f: => A): A = {
    val id = begin(n, p)
    try f finally finish(id)
  }

  /** Durations of the spans called `n`. */
  def durations(n: String): Array[Long] = nameIds.get(n) match {
    case None => Array.emptyLongArray
    case Some(k) => (0 until size).iterator.filter(name(_) == k).map(nanos).toArray
  }

  def total(n: String): Long = durations(n).sum

  /** Self time per span name, plus the `build` and `solve` shares carried
    * by unit spans: a span's duration minus what its children cover.
    */
  def selfNanos: Map[String, Long] = {
    val child = new Array[Long](size)
    var i = 0
    while (i < size) { if (parent(i) >= 0) child(parent(i)) += nanos(i); i += 1 }
    val self = new scala.collection.mutable.HashMap[String, Long]()
    i = 0
    while (i < size) {
      val s = nanos(i) - child(i) - build(i) - solve(i)
      self(names(name(i))) = self.getOrElse(names(name(i)), 0L) + s
      if (build(i) + solve(i) > 0) {
        self("build") = self.getOrElse("build", 0L) + build(i)
        self("solve") = self.getOrElse("solve", 0L) + solve(i)
      }
      i += 1
    }
    self.toMap
  }

  /** One JSON object per line: id, name, parent, start/end (ns, relative to
    * the first span), build/solve (ns).
    */
  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val w = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(file)))
    try {
      val t0 = if (size == 0) 0L else start(0)
      var i = 0
      while (i < size) {
        w.println(s"""{"id":$i,"name":"${names(name(i))}","parent":${parent(i)},""" +
          s""""start":${start(i) - t0},"end":${end(i) - t0},"build":${build(i)},"solve":${solve(i)}}""")
        i += 1
      }
    } finally w.close()
  }
}

/** Collects the tasks of Spark jobs: stage, launch time, finish time and
  * executor run time (ms), plus each stage's submission time.
  */
final class TaskListener extends SparkListener {
  final case class Task(stage: Int, launch: Long, finish: Long, runMs: Long)
  private val tasks = new ConcurrentLinkedQueue[Task]()
  private val submitted = new java.util.concurrent.ConcurrentHashMap[Int, Long]()

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    submitted.put(e.stageInfo.stageId, e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis()))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val run = if (e.taskMetrics == null) e.taskInfo.duration else e.taskMetrics.executorRunTime
    tasks.add(Task(e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime, run))
  }

  /** Tasks of the last stage run since the previous call — the stage that
    * ran `mapPartitions` over the level-1 units — with the time each waited
    * between stage submission and launch.
    */
  def drainLastStage(spark: SparkSession): Seq[(Task, Long)] = {
    ListenerDrain.await(spark.sparkContext, 60000L)
    val all = Iterator.continually(tasks.poll()).takeWhile(_ != null).toVector
    if (all.isEmpty) Vector.empty
    else {
      val last = all.map(_.stage).max
      val sub = submitted.getOrDefault(last, all.filter(_.stage == last).map(_.launch).min)
      all.filter(_.stage == last).map(t => (t, t.launch - sub))
    }
  }
}

/** The traced run: one HBBMC++ pass recorded span by span (prepare and
  * every `Engine.solveUnit` call), replays of single layers through their
  * public functions, and a distributed pass observed through a
  * [[TaskListener]]. Produces the per-layer metrics.
  */
object Trace {

  final case class Metric(value: Double, unit: String)

  /** Times each single-layer replay runs; its median counts. */
  val Replays = 3

  /** The body of `Engine.runLocal`, with a span around `prepare` and one
    * per level-1 unit.
    */
  private def tracedRunLocal(spans: Spans, pass: Int, in: Input, cfg: MceConfig): (Prepared, MceStats) = {
    val prep = spans.timed("Engine.prepare", pass)(Engine.prepare(in.g, cfg))
    val counting = new CountingSink
    val tee = new TeeSink(counting, Enumerate.nullSink)
    val counters = new Counters
    Engine.emitDirect(prep, tee)
    val translated = Engine.translatingSink(prep, tee)
    val ws = Engine.workspace(prep)
    var unit = 0
    while (unit < prep.units) {
      val b0 = counters.buildNanos; val s0 = counters.solveNanos
      val t0 = System.nanoTime()
      Engine.solveUnit(prep, unit, ws, counters, translated)
      val t1 = System.nanoTime()
      spans.add("Engine.solveUnit", pass, t0, t1, counters.buildNanos - b0, counters.solveNanos - s0)
      unit += 1
    }
    (prep, counters.toStats(counting))
  }

  /** Rebuilds every level-1 branch of `prep` without solving it and
    * returns the bytes that allocated.
    */
  private def buildAllocation(prep: Prepared): Long = {
    val ws = Engine.workspace(prep)
    val a0 = Enumerate.threadAllocated()
    var unit = 0
    while (unit < prep.units) {
      val ctx = new AnchorContext(prep.reduced, prep.edgeRank, prep.anchorVerts(unit),
        prep.cfg.edgeDepth >= 2, ws)
      var k = prep.anchorOff(unit)
      while (k < prep.anchorOff(unit + 1)) { ctx.branch(prep.anchorEdges(k)); k += 1 }
      unit += 1
    }
    Enumerate.threadAllocated() - a0
  }

  private def serializedBytes(o: AnyRef): Long = {
    var n = 0L
    val counter = new java.io.OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new java.io.ObjectOutputStream(counter)
    out.writeObject(o)
    out.close()
    n
  }

  private def quantile(sorted: Array[Double], q: Double): Double =
    if (sorted.isEmpty) Double.NaN
    else sorted(math.min(sorted.length - 1, math.max(0, math.ceil(q * sorted.length).toInt - 1)))

  final case class Result(metrics: Map[String, Metric], problems: Seq[String])

  /** @param untracedMs    the untraced HBBMC++ pass over `inputs` (ms)
    * @param untracedStats its per-input statistics
    * @param gcMs          GC time during that pass
    */
  def run(spans: Spans, spark: SparkSession, listener: TaskListener, inputs: Seq[Input],
          untracedMs: Double, untracedStats: Seq[MceStats], gcMs: Double): Result = {
    val cfg = MceConfig.hbbmcPP
    val problems = Seq.newBuilder[String]

    // the traced pass
    val pass = spans.begin("pass", -1)
    val traced = inputs.map(in => tracedRunLocal(spans, pass, in, cfg))
    spans.finish(pass)
    val passMs = spans.nanos(pass) / 1e6
    traced.map(_._2).zip(untracedStats).zip(inputs).foreach { case ((t, u), in) =>
      if (t != u) problems += s"${in.name}: traced run $t differs from untraced run $u"
    }
    val preps = traced.map(_._1)
    val stats = traced.map(_._2)

    // single layers, replayed through their public functions; each replay
    // runs Replays times and its median counts
    val probe = spans.begin("probe", -1)
    def replay[A](n: String)(f: => A): (A, Long) = {
      val runs = (1 to Replays).map { _ =>
        val id = spans.begin(n, probe)
        val r = f
        spans.finish(id)
        (r, spans.nanos(id))
      }
      (runs.last._1, runs.map(_._2).sorted.apply(Replays / 2))
    }
    var grNs = 0L; var trussNs = 0L; var degenNs = 0L; var prepareNs = 0L
    var removed = 0L; var direct = 0L; var tau = 0; var delta = 0
    var buildAlloc = 0L
    inputs.zip(preps).foreach { case (in, prep) =>
      val (red, gr) = replay("GraphReduction.reduce")(GraphReduction.reduce(in.g, new CollectSink))
      val (truss, tr) = replay("EdgeOrders.truss")(EdgeOrders.truss(red.reduced))
      val (degen, dg) = replay("Degeneracy.compute")(Degeneracy.compute(red.reduced))
      val (_, pr) = replay("Engine.prepare")(Engine.prepare(in.g, cfg))
      grNs += gr; trussNs += tr; degenNs += dg; prepareNs += pr
      removed += in.g.n - red.reduced.n
      direct += prep.directCliques.length
      tau = math.max(tau, truss.bound)
      delta = math.max(delta, degen.delta)
      buildAlloc += spans.timed("BranchGraph.build", probe)(buildAllocation(prep))
    }
    spans.finish(probe)

    // the distributed pass, observed per task
    inputs.foreach(in => spans.timed("dist.prepare", -1)(Engine.prepare(in.g, cfg)))
    val distPrepMs = spans.total("dist.prepare") / 1e6
    val broadcastKb = preps.map(serializedBytes).sum / 1024.0
    listener.drainLastStage(spark)
    val dist = spans.begin("DistMCE.run", -1)
    val perRun = inputs.map { in =>
      val t0 = System.nanoTime()
      val s = DistMCE.run(spark, in.g, cfg)
      val ms = (System.nanoTime() - t0) / 1e6
      (s, ms, listener.drainLastStage(spark))
    }
    spans.finish(dist)
    val distMs = spans.nanos(dist) / 1e6
    val clockOffset = System.nanoTime() - System.currentTimeMillis() * 1000000L
    perRun.foreach(_._3.foreach { case (t, _) =>
      spans.add("spark.task", dist, t.launch * 1000000L + clockOffset, t.finish * 1000000L + clockOffset)
    })
    perRun.map(_._1).zip(stats).zip(inputs).foreach { case ((d, s), in) =>
      if (d != s) problems += s"${in.name}: DistMCE.run $d differs from sequential run $s"
    }
    val tasks = perRun.flatMap(_._3)
    val taskMs = tasks.map(_._1.runMs.toDouble).sorted.toArray
    val waits = tasks.map(_._2.toDouble).sorted.toArray
    val slowest = perRun.maxBy(_._2)._3.map(_._1.runMs.toDouble).sorted.toArray
    val skew = if (slowest.isEmpty) Double.NaN else slowest.last / math.max(1.0, quantile(slowest, 0.5))

    // units
    val unitMs = spans.durations("Engine.solveUnit").map(_ / 1e6).sorted
    val self = spans.selfNanos
    def ms(n: String): Double = self.getOrElse(n, 0L) / 1e6
    val prepareMs = prepareNs / 1e6
    val grMs = grNs / 1e6
    val trussMs = trussNs / 1e6
    val anchorMs = prepareMs - grMs - trussMs
    val calls = stats.map(_.calls).sum
    val applied = stats.map(_.etApplied).sum
    val plex = stats.map(_.plexBranches).sum
    val maxAnchorDeg = preps.flatMap(p => p.anchorVerts.iterator.map(p.reduced.degree)).maxOption.getOrElse(0)
    val unitsWithTail = unitMs.length >= 1000
    if (!unitsWithTail) problems += s"only ${unitMs.length} units: too few for a p99 with ten samples beyond it"

    val m = Map(
      "gr.ms" -> Metric(grMs, "ms"),
      "gr.removed_vertices" -> Metric(removed.toDouble, "count"),
      "gr.direct_cliques" -> Metric(direct.toDouble, "count"),
      "order.truss_ms" -> Metric(trussMs, "ms"),
      "order.tau" -> Metric(tau.toDouble, "count"),
      "order.degen_ms" -> Metric(degenNs / 1e6, "ms"),
      "order.delta" -> Metric(delta.toDouble, "count"),
      "prepare.ms" -> Metric(prepareMs, "ms"),
      "anchor.ms" -> Metric(anchorMs, "ms"),
      "anchor.units" -> Metric(preps.map(_.units.toLong).sum.toDouble, "count"),
      "anchor.max_degree" -> Metric(maxAnchorDeg.toDouble, "count"),
      "anchor.matrix_mb" -> Metric(maxAnchorDeg.toDouble * maxAnchorDeg * 4 / 1048576.0, "MiB"),
      "build.ms" -> Metric(ms("build"), "ms"),
      "build.alloc_mb" -> Metric(buildAlloc / 1048576.0, "MiB"),
      "level1.branches" -> Metric(stats.map(_.level1Branches).sum.toDouble, "count"),
      "solve.ms" -> Metric(ms("solve"), "ms"),
      "kernel.calls" -> Metric(calls.toDouble, "count"),
      "kernel.ns_per_call" -> Metric(self.getOrElse("solve", 0L).toDouble / math.max(1L, calls), "ns"),
      "et.applied" -> Metric(applied.toDouble, "count"),
      "et.plex" -> Metric(plex.toDouble, "count"),
      "et.ratio" -> Metric(if (plex == 0) 0.0 else applied.toDouble / plex, "ratio"),
      "unit.ms.max" -> Metric(unitMs.lastOption.getOrElse(0.0), "ms"),
      "unit.self_ms" -> Metric(ms("Engine.solveUnit"), "ms"),
      "dist.prepare_ms" -> Metric(distPrepMs, "ms"),
      "dist.broadcast_kb" -> Metric(broadcastKb, "KiB"),
      "dist.tasks" -> Metric(tasks.size.toDouble, "count"),
      "dist.task_ms.median" -> Metric(quantile(taskMs, 0.5), "ms"),
      "dist.task_ms.max" -> Metric(taskMs.lastOption.getOrElse(Double.NaN), "ms"),
      "dist.skew" -> Metric(skew, "ratio"),
      "dist.sched_delay_ms" -> Metric(quantile(waits, 0.5), "ms"),
      "dist.speedup" -> Metric(untracedMs / distMs, "ratio"),
      "jvm.gc_ms" -> Metric(gcMs, "ms"),
      "trace.overhead_pct" -> Metric(100.0 * (passMs - untracedMs) / untracedMs, "%"),
      "trace.accounted_pct" -> Metric(100.0 * (grMs + trussMs + anchorMs + ms("build") + ms("solve")) / untracedMs, "%")
    ) ++ (if (unitsWithTail) Map("unit.ms.p99" -> Metric(quantile(unitMs, 0.99), "ms")) else Map.empty)
    Result(m, problems.result())
  }
}
