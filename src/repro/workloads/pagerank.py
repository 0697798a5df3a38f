"""PageRank (paper Table 2: Graph, LiveJournal 69M edges, 128MB parts).

Real job: join-based PageRank on an edge DataFrame (the GraphX
LiveJournalPageRank pattern of §3.5: coalesce the edges, join them with
their out-degrees once, then iterate rank updates through joins). Heavy
per-task footprints (M_u = 770MB in Table 6) and large network fetches
during the coalesce make this the paper's canonical unsafe-under-defaults
application.

The edges are not cached: the simulator carries §3.5's cached edges in
``WorkloadModel.cache_mb``, and at these scale factors a cache that the
iterations read measured slower than recomputing the edges.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .. import synth_data

_EDGES_PER_SF = 4_000_000  # SF=1 ~ 69M-edge-class graph scaled down
DAMPING = 0.85


def input_df(spark: SparkSession, *, sf: float = 0.001, seed: int = 13) -> DataFrame:
    n_edges = max(10, int(_EDGES_PER_SF * sf))
    n_nodes = max(5, n_edges // 12)
    return synth_data.graph_edges(spark, n_edges=n_edges, n_nodes=n_nodes, seed=seed)


def iterate(links: DataFrame, nodes: DataFrame, ranks: DataFrame) -> DataFrame:
    """One PageRank step over ``links`` (src, dst, deg = outdeg(src)) and all
    ``nodes``: rank' = (1-d) + d * Σ rank(src)/outdeg(src)."""
    contribs = (
        links.join(ranks, links.src == ranks.node)
        .select(F.col("dst").alias("node"), (F.col("rank") / F.col("deg")).alias("c"))
        .groupBy("node")
        .agg(F.sum("c").alias("s"))
    )
    # Nodes no edge points at keep the base rank via the left join.
    return nodes.join(contribs, "node", "left").select(
        "node",
        (F.lit(1.0 - DAMPING) + F.lit(DAMPING) * F.coalesce(F.col("s"), F.lit(0.0))).alias("rank"),
    )


def run(spark: SparkSession, *, sf: float = 0.001, iterations: int = 3, seed: int = 13) -> DataFrame:
    """Ranks after ``iterations`` steps over the coalesced edges."""
    edges = input_df(spark, sf=sf, seed=seed).coalesce(8)
    nodes = (
        edges.select(F.col("src").alias("node"))
        .union(edges.select(F.col("dst").alias("node")))
        .distinct()
    )
    out_deg = edges.groupBy(F.col("src").alias("dnode")).agg(F.count("*").alias("deg"))
    links = edges.join(out_deg, edges.src == out_deg.dnode).select("src", "dst", "deg")
    ranks = nodes.select("node", F.lit(1.0).alias("rank"))
    for _ in range(iterations):
        ranks = iterate(links, nodes, ranks)
    return ranks
