package repro.perfbench

import repro.graph.{GraphGen, LocalGraph}
import scala.util.Random

/** What a correct enumeration of one input must report. `None` fields are
  * not known in closed form for that input.
  */
final case class Expected(cliques: Long, sumSize: Option[Long] = None, maxSize: Option[Int] = None)

/** One input graph of a workload. */
final case class Input(name: String, g: LocalGraph, expected: Option[Expected])

/** A named benchmark workload: how to build its inputs from a seed
  * (`small` shrinks them for the self-test).
  */
final case class Workload(name: String, make: (Long, Boolean) => Seq[Input])

object Workloads {

  /** The seed that reproduces the committed suite exactly. */
  val DefaultSeed = 0L

  val denseNames: Seq[String] = Seq("DG", "OR")
  val sparseNames: Seq[String] = GraphGen.paperSuite.map(_.name).filterNot(denseNames.contains)

  /** Clique counts of the committed bench results (table2.tsv) for the
    * default seed. A seed permutes vertex ids, so counts hold for
    * every seed.
    */
  val committedCliques: Map[String, Long] = Map(
    "NA" -> 17835L, "FB" -> 55418L, "WE" -> 8018L, "WK" -> 59003L, "SH" -> 24623L,
    "ST" -> 114051L, "DB" -> 17572L, "DE" -> 79072L, "DG" -> 2633755L, "YO" -> 20645L,
    "PO" -> 88815L, "SK" -> 87244L, "CN" -> 76909L, "BA" -> 64524L, "OR" -> 1144709L,
    "SO" -> 62296L)

  /** Leaves of the hub-star graph, and leaf–leaf edges sprinkled over them. */
  val HubLeaves = 10000
  val HubSprinkle = 100

  val all: Seq[Workload] = Seq(
    Workload("dense-hard", (seed, small) => denseNames.map(n => suiteInput(GraphGen.byName(n), seed, small))),
    Workload("sparse-suite", (seed, small) => sparseNames.map(n => suiteInput(GraphGen.byName(n), seed, small))),
    Workload("hub-star", (seed, small) =>
      Seq(hubStar(if (small) 2000 else HubLeaves, if (small) 20 else HubSprinkle, seed)))
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** A committed suite dataset with its vertex ids permuted by `seed`.
    * Generating the same config with another generator seed changes the
    * work by up to ±20% (DG+OR: 3.4M–4.7M cliques over four seeds), which
    * would swamp run-to-run comparisons; a permutation keeps the work and
    * changes the input the program sees (ids, CSR layout, order ties).
    * `small` shrinks the config for the self-test.
    */
  def suiteInput(cfg0: GraphGen.DatasetConfig, seed: Long, small: Boolean): Input = {
    val cfg = if (small) shrink(cfg0) else cfg0
    val g = permute(GraphGen.generate(cfg), seed)
    val expected = if (small) None else committedCliques.get(cfg.name).map(Expected(_))
    Input(cfg.name, g, expected)
  }

  private def shrink(c: GraphGen.DatasetConfig): GraphGen.DatasetConfig = c.copy(
    n = c.n / 8, nCliques = c.nCliques / 8, overlapWindow = c.overlapWindow / 2,
    nPockets = math.min(c.nPockets, 2), pocketMin = c.pocketMin / 3, pocketMax = c.pocketMax / 3)

  /** Three mutually adjacent hubs, `leaves` leaves adjacent to all three,
    * and a seeded matching of `sprinkle` leaf–leaf edges. Its maximal cliques
    * are the hub triangle plus one unmatched leaf (size 4) or one matched
    * pair (size 5), so their number and sizes are known in closed form.
    */
  def hubStar(leaves: Int, sprinkle: Int, seed: Long): Input = {
    require(2 * sprinkle <= leaves)
    val n = leaves + 3
    val edges = new scala.collection.mutable.ArrayBuffer[(Int, Int)](3 * n + sprinkle)
    edges ++= Seq((0, 1), (0, 2), (1, 2))
    var leaf = 3
    while (leaf < n) { edges += ((0, leaf)); edges += ((1, leaf)); edges += ((2, leaf)); leaf += 1 }
    val shuffled = new Random(seed ^ 0x5eedL).shuffle((3 until n).toVector)
    var i = 0
    while (i < sprinkle) { edges += ((shuffled(2 * i), shuffled(2 * i + 1))); i += 1 }
    val g = permute(LocalGraph.fromEdges(n, edges), seed)
    val singles = leaves - 2 * sprinkle
    Input("HUB", g, Some(Expected(singles + sprinkle, Some(4L * singles + 5L * sprinkle),
      Some(if (sprinkle > 0) 5 else 4))))
  }

  /** Relabel vertices by a seeded random permutation (identity for the
    * default seed).
    */
  def permute(g: LocalGraph, seed: Long): LocalGraph = {
    val perm =
      if (seed == DefaultSeed) Array.tabulate(g.n)(identity)
      else new Random(seed).shuffle((0 until g.n).toVector).toArray
    val src = new Array[Int](g.m)
    val dst = new Array[Int](g.m)
    var e = 0
    while (e < g.m) { src(e) = perm(g.eu(e)); dst(e) = perm(g.ev(e)); e += 1 }
    LocalGraph.fromEdgeArrays(g.n, src, dst)
  }
}
