"""WordCount (paper Table 2: Map and Reduce, 50GB RandomTextWriter, 128MB).

Real job: split lines into words, group, count — the classic two-stage
map/reduce through Catalyst (explode + hash aggregate + exchange).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .. import synth_data
from .base import MeasuredProfile, measure_job

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


def measure(spark: SparkSession, *, sf: float) -> MeasuredProfile:
    """Run the real job and measure rows, volume and wall time."""
    lines = input_df(spark, sf=sf)
    sample = lines.limit(2000).toPandas()
    return measure_job(
        "WordCount",
        sf,
        count_rows=lines.count,
        job=lambda: run(spark, sf=sf).count(),
        bytes_per_row=float(sample["line"].str.len().mean()) + 1.0,
        mem_expansion=1.8,  # java.lang.String ~2 bytes/char + object headers
        shuffle_frac=0.08,  # word/count pairs are a small fraction of text
    )
