"""WordCount (paper Table 2: Map and Reduce, 50GB RandomTextWriter, 128MB).

Real job: split lines into words, group, count — the classic two-stage
map/reduce through Catalyst (explode + hash aggregate + exchange).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .. import synth_data

#: Rows per unit scale factor (SF=1 ~ 1GB of text at ~64B/line ~ 16M lines).
_LINES_PER_SF = 16_000_000


def input_df(spark: SparkSession, *, sf: float = 0.001, seed: int = 0) -> DataFrame:
    n = max(1, int(_LINES_PER_SF * sf))
    return synth_data.random_text(spark, n_lines=n, seed=seed)


def run(spark: SparkSession, *, sf: float = 0.001, seed: int = 0) -> DataFrame:
    """Word frequencies, aliased for the DuckDB oracle."""
    lines = input_df(spark, sf=sf, seed=seed)
    return (
        lines.select(F.explode(F.split(F.col("line"), " ")).alias("word"))
        .groupBy("word")
        .agg(F.count("*").alias("cnt"))
    )


#: Oracle SQL over the registered ``lines`` table (DuckDB dialect).
ORACLE_SQL = """
    SELECT w AS word, count(*) AS cnt
    FROM (SELECT unnest(string_split(line, ' ')) AS w FROM lines)
    GROUP BY w
"""
