"""SVM (paper Table 2: Machine Learning, HiBench huge, 32MB partitions).

Real job: linear SVM trained by batch subgradient descent on the hinge
loss — each iteration is one Catalyst aggregation over the cached
examples computing the average subgradient. Small partitions (32MB,
deliberately non-default per Table 2) give SVM the smallest per-task
footprint in the suite, which is what makes its profiles lack full GC
events (§6.4 / Figure 22).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .. import synth_data

_ROWS_PER_SF = 20_000_000
DIM = 4
REG = 0.01  # L2 regularization
LR = 0.5  # learning rate


def input_df(spark: SparkSession, *, sf: float = 0.001, seed: int = 12) -> DataFrame:
    n = max(10, int(_ROWS_PER_SF * sf))
    return synth_data.labeled_examples(spark, n=n, dim=DIM, seed=seed)


def _margin(w: np.ndarray):
    return sum(F.col(f"x{i}") * float(w[i]) for i in range(DIM)) * F.col("y")


def gradient(examples: DataFrame, w: np.ndarray) -> np.ndarray:
    """Average hinge subgradient at ``w`` plus the L2 term."""
    viol = _margin(w) < 1.0
    aggs = [
        F.avg(F.when(viol, -F.col("y") * F.col(f"x{i}")).otherwise(0.0)).alias(f"g{i}")
        for i in range(DIM)
    ]
    row = examples.agg(*aggs).collect()[0]
    return np.array([row[f"g{i}"] for i in range(DIM)]) + REG * w


def run(
    spark: SparkSession, *, sf: float = 0.001, iterations: int = 3, seed: int = 12
) -> tuple[np.ndarray, DataFrame]:
    """Train; return (weights, per-label accuracy DataFrame, computed)."""
    ex = input_df(spark, sf=sf, seed=seed).cache()
    try:
        w = np.zeros(DIM)
        for _ in range(iterations):
            w = w - LR * gradient(ex, w)
        score = sum(F.col(f"x{i}") * float(w[i]) for i in range(DIM))
        correct = (F.when(score >= 0, 1.0).otherwise(-1.0) == F.col("y")).cast("int")
        acc = ex.groupBy("y").agg(F.count("*").alias("n"), F.sum(correct).alias("n_correct"))
        return w, spark.createDataFrame(acc.toArrow())
    finally:
        ex.unpersist()


def gradient_oracle_sql(w: np.ndarray) -> str:
    """DuckDB SQL computing the same hinge subgradient aggregation."""
    margin = "(" + "+".join(f"x{i}*({w[i]})" for i in range(DIM)) + ")*y"
    cols = ", ".join(
        f"avg(CASE WHEN {margin} < 1 THEN -y*x{i} ELSE 0.0 END) AS g{i}"
        for i in range(DIM)
    )
    return f"SELECT {cols} FROM examples"
