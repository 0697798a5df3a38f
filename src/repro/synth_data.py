"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )


# --- Extensions for the RelM reproduction test suite (paper Table 2). ---

# Hadoop RandomTextWriter draws words from a fixed dictionary. As an object
# array it maps a whole index array to Python strs at once.
_WORDS = np.array([f"w{i:03d}" for i in range(200)], dtype=object)


def random_text(spark: SparkSession, *, n_lines: int, words_per_line: int = 10, seed: int = 10) -> DataFrame:
    """RandomTextWriter-style corpus: one space-joined line per row."""
    g = _rng(seed)
    idx = g.integers(0, len(_WORDS), (n_lines, words_per_line))
    lines = [" ".join(row) for row in _WORDS[idx].tolist()]
    return spark.createDataFrame(pd.DataFrame({"line": lines}))


def clustered_points(
    spark: SparkSession, *, n: int, k: int = 4, dim: int = 4, spread: float = 0.35, seed: int = 11
) -> DataFrame:
    """HiBench-style K-means input: Gaussian blobs around ``k`` centers.

    Columns ``x0..x{dim-1}`` plus the true cluster id ``c`` (for tests).
    """
    g = _rng(seed)
    centers = g.uniform(-5, 5, (k, dim))
    assign = g.integers(0, k, n)
    pts = centers[assign] + g.normal(0, spread, (n, dim))
    pdf = pd.DataFrame(pts, columns=[f"x{i}" for i in range(dim)])
    pdf["c"] = assign
    return spark.createDataFrame(pdf)


def labeled_examples(
    spark: SparkSession, *, n: int, dim: int = 4, seed: int = 12
) -> DataFrame:
    """HiBench-style SVM input: linearly separable examples with noise.

    Columns ``x0..x{dim-1}`` and label ``y`` in {-1.0, +1.0}.
    """
    g = _rng(seed)
    w = g.normal(0, 1, dim)
    x = g.normal(0, 1, (n, dim))
    margin = x @ w + g.normal(0, 0.3, n)
    pdf = pd.DataFrame(x, columns=[f"x{i}" for i in range(dim)])
    pdf["y"] = np.where(margin >= 0, 1.0, -1.0)
    return spark.createDataFrame(pdf)


def graph_edges(spark: SparkSession, *, n_edges: int, n_nodes: int, seed: int = 13) -> DataFrame:
    """LiveJournal-style directed graph with power-law out-degrees.

    Columns ``src``/``dst``; self-loops removed. Degree skew follows a
    Zipf(1.3) popularity over node ids, like real social graphs.
    """
    g = _rng(seed)
    ranks = np.arange(1, n_nodes + 1)
    w = 1.0 / ranks**1.3
    w /= w.sum()
    src = g.choice(ranks, size=n_edges, p=w)
    dst = g.integers(1, n_nodes + 1, n_edges)
    keep = src != dst
    return spark.createDataFrame(
        pd.DataFrame({"src": src[keep].astype("int64"), "dst": dst[keep].astype("int64")})
    )
