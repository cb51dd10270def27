package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.LocalGraph
import repro.mce._

/** Spark-distributed maximal clique enumeration.
  *
  * The search tree is partitioned by its level-1 branches, exactly as the
  * reproduction hint prescribes: one unit per *edge* of the ordered initial
  * split for HBBMC/EBBMC, one per *vertex* for the VBBMC baselines. The
  * prepared state (reduced graph CSR + orderings + config) is broadcast;
  * each task solves a contiguous range of branches with the same sequential
  * kernels the local engine uses and returns per-partition statistics (and,
  * optionally, the cliques themselves as a DataFrame for verification).
  */
object DistMCE {

  /** Count-only distributed run: returns merged statistics. */
  def run(spark: SparkSession, g: LocalGraph, cfg: MceConfig,
          parallelism: Int = 0): MceStats = {
    import spark.implicits._
    val prep = Engine.prepare(g, cfg)
    val par = if (parallelism > 0) parallelism else spark.sparkContext.defaultParallelism * 4
    val bc = spark.sparkContext.broadcast(prep)
    val directStats = directCliqueStats(prep)
    val units = spark.range(0, prep.units.toLong).as[Long]
      .repartition(math.max(1, math.min(par, math.max(1, prep.units))))
    val partStats = units
      .mapPartitions { it =>
        val p = bc.value
        val counters = new Counters
        val counting = new CountingSink
        val translated = Engine.translatingSink(p, counting)
        val ws = Engine.workspace(p)
        it.foreach(u => Engine.solveUnit(p, u.toInt, ws, counters, translated))
        Iterator.single((counting.count, counting.sumSize, counting.maxSize,
          counters.calls, counters.etApplied, counters.plexBranches, counters.level1Branches))
      }
      .collect()
    val enumStats = partStats.foldLeft(MceStats.zero) { case (acc, t) =>
      acc.merge(MceStats(t._1, t._2, t._3, t._4, t._5, t._6, t._7))
    }
    enumStats.merge(directStats)
  }

  /** Distributed run that also returns every maximal clique as a DataFrame
    * with a single array<int> column `clique` (sorted ascending) — used by
    * the integration tests and the DataFrame-level verification joins.
    */
  def runCollect(spark: SparkSession, g: LocalGraph, cfg: MceConfig,
                 parallelism: Int = 0): (DataFrame, MceStats) = {
    import spark.implicits._
    val prep = Engine.prepare(g, cfg)
    val par = if (parallelism > 0) parallelism else spark.sparkContext.defaultParallelism * 4
    val bc = spark.sparkContext.broadcast(prep)
    val callsAcc = spark.sparkContext.longAccumulator("mce.calls")
    val etAcc = spark.sparkContext.longAccumulator("mce.et")
    val plexAcc = spark.sparkContext.longAccumulator("mce.plex")
    val level1Acc = spark.sparkContext.longAccumulator("mce.level1")
    val cliquesDs = spark.range(0, prep.units.toLong).as[Long]
      .repartition(math.max(1, math.min(par, math.max(1, prep.units))))
      .mapPartitions { it =>
        val p = bc.value
        val counters = new Counters
        val collect = new CollectSink
        val translated = Engine.translatingSink(p, collect)
        val ws = Engine.workspace(p)
        it.foreach(u => Engine.solveUnit(p, u.toInt, ws, counters, translated))
        callsAcc.add(counters.calls)
        etAcc.add(counters.etApplied)
        plexAcc.add(counters.plexBranches)
        level1Acc.add(counters.level1Branches)
        collect.cliques.iterator.map(_.toSeq)
      }
    val direct = prep.directCliques.map(_.sorted.toSeq).toSeq
    val all = cliquesDs.toDF("clique")
      .unionAll(direct.toDF("clique"))
      .cache()
    val cnt = all.count()
    val sizes = all.selectExpr("sum(size(clique)) as s", "max(size(clique)) as m").head()
    val stats = MceStats(
      cnt,
      if (sizes.isNullAt(0)) 0L else sizes.getLong(0),
      if (sizes.isNullAt(1)) 0 else sizes.getInt(1),
      callsAcc.value, etAcc.value, plexAcc.value, level1Acc.value
    )
    (all, stats)
  }

  private def directCliqueStats(prep: Prepared): MceStats = {
    var cnt = 0L; var sum = 0L; var mx = 0
    prep.directCliques.foreach { c =>
      cnt += 1; sum += c.length; mx = math.max(mx, c.length)
    }
    MceStats(cnt, sum, mx, 0L, 0L, 0L, 0L)
  }
}
