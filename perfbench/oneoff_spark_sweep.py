"""One-off measurement: Spark-parallel grid sweep vs the sequential loop.

Not a workload. Times ``tuners.exhaustive.exhaustive_search_spark`` (the
``applyInPandas`` sweep) against simulating the same configurations one
after another, at the §6.1 grid size and at the dense grid size of the
``sweep`` workload, cold (first call in the session) and warm (best of
the next calls). For the dense grid the sweep's ``grid_df`` is replaced
by one that builds the dense grid, so the same UDF path evaluates it.
Both paths must return the same runtimes. Run from the repository root:

    python3 perfbench/oneoff_spark_sweep.py
"""
from __future__ import annotations

import os
import sys
import time

import pandas as pd

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)
# The UDF runs in Spark's Python workers, which import repro from here.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

import repro.tuners.exhaustive as ex  # noqa: E402
from repro.cluster import CLUSTER_A, CLUSTER_B  # noqa: E402
from repro.config import grid_configs  # noqa: E402
from repro.simcluster import simulate  # noqa: E402
from repro.workloads import dominant_pool, workload_model  # noqa: E402

from wl_spark import start_session, stop_session  # noqa: E402
from wl_sweep import dense_grid  # noqa: E402

WARM_REPEATS = 3


def sequential(name, cluster, configs):
    model = workload_model(name)
    return sorted(simulate(model, c, cluster).runtime_sec for c in configs)


def spark_sweep(spark, name, cluster):
    out = ex.exhaustive_search_spark(spark, name, cluster, dominant_pool=dominant_pool(name))
    return sorted(out.runtime_sec)


def timings(fn) -> tuple[float, float, list]:
    t0 = time.perf_counter()
    out = fn()
    cold = time.perf_counter() - t0
    warm = []
    for _ in range(WARM_REPEATS):
        t0 = time.perf_counter()
        fn()
        warm.append(time.perf_counter() - t0)
    return cold, min(warm), out


def main() -> int:
    spark = start_session(os.path.join(".perfbench_out", "oneoff"))
    original = ex.grid_df
    try:
        for name, cluster, grid in [
            ("K-means", CLUSTER_A, "6.1"),
            ("K-means", CLUSTER_A, "dense"),
            ("K-means", CLUSTER_B, "dense"),
        ]:
            pool = dominant_pool(name)
            if grid == "dense":
                configs = dense_grid(cluster, pool)
                ex.grid_df = lambda s, c, dominant_pool, cfgs=configs: s.createDataFrame(
                    pd.DataFrame([x.as_row() for x in cfgs]))
            else:
                configs = grid_configs(cluster, dominant_pool=pool)
                ex.grid_df = original
            s_cold, s_warm, s_out = timings(lambda: sequential(name, cluster, configs))
            p_cold, p_warm, p_out = timings(lambda: spark_sweep(spark, name, cluster))
            same = len(s_out) == len(p_out) and all(
                abs(a - b) <= 1e-9 * max(1.0, abs(a)) for a, b in zip(s_out, p_out))
            print(f"{name} cluster {cluster.name} {grid} grid, {len(configs)} configs: "
                  f"sequential cold {s_cold:.3f}s warm {s_warm:.3f}s; "
                  f"spark cold {p_cold:.3f}s warm {p_warm:.3f}s; same runtimes: {same}")
    finally:
        ex.grid_df = original
        stop_session(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
