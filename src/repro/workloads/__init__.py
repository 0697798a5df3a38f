"""The benchmark test suite (paper Table 2) and its registry.

Each application exists twice:

* as a :class:`~repro.workloads.base.WorkloadModel` in
  :data:`~repro.workloads.base.MODELS` — the scaled parameterization the
  cluster simulator evaluates at the paper's dataset sizes (50GB
  WordCount, 30GB SortByKey, 100M-sample K-means and SVM, 69M-edge
  PageRank, SF-50 TPC-H), and
* as a **real PySpark DataFrame job** over synthetic data in its own
  module (``wordcount``, ``sortbykey``, ``kmeans``, ``svm``,
  ``pagerank``, ``tpch``), run only to be checked against the same
  query on DuckDB. No model constant is read from these runs.

This package imports no job module, so the simulator side never loads
Spark; ``from repro.workloads import kmeans`` imports a job on demand.
"""
from __future__ import annotations

from .base import MODELS, WorkloadModel

#: Paper Table 2 ordering.
SUITE = ("WordCount", "SortByKey", "K-means", "SVM", "PageRank")


def workload_model(name: str) -> WorkloadModel:
    """The simulator parameterization for a Table 2 workload."""
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(MODELS)}") from None


def dominant_pool(name: str) -> str:
    """Which of Cache/Shuffle capacity the app predominantly uses (§6.1)."""
    return "cache" if workload_model(name).cache_mb > 0 else "shuffle"
