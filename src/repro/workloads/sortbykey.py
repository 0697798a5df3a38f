"""SortByKey (paper Table 2: Map and Reduce, 30GB, 512MB partitions).

Real job: a total sort through Catalyst's range-partitioned Sort
(Exchange rangepartitioning + SortExec). The reduce-side in-memory sort
is exactly the operation whose shuffle-memory/GC interplay Section 3.3
and Figure 10 analyze.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from .. import synth_data

_ROWS_PER_SF = 8_000_000  # SF=1 ~ 1GB of (k, v) pairs


def input_df(spark: SparkSession, *, sf: float = 0.001, seed: int = 4) -> DataFrame:
    n = max(1, int(_ROWS_PER_SF * sf))
    return synth_data.uniform_keys(spark, n=n, n_keys=max(10, n // 4), seed=seed)


def run(spark: SparkSession, *, sf: float = 0.001, seed: int = 4) -> DataFrame:
    """Totally-ordered rows by key (ties broken by value for determinism)."""
    return input_df(spark, sf=sf, seed=seed).orderBy("k", "v")


#: Content-equality oracle (row order is asserted separately in tests
#: because the oracle canonicalizes order away).
ORACLE_SQL = "SELECT k, v FROM pairs ORDER BY k, v"
