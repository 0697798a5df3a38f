"""Table 5: manual tuning of PageRank (§3.5).

Four configurations: the default, Task Concurrency lowered to 1, Cache
Capacity lowered to 0.4, and NewRatio raised to 5 — each run through the
simulator and reported with runtime, cache hit ratio and GC overheads
next to the paper's measurements.
"""
from __future__ import annotations

from ..cluster import CLUSTER_A
from ..config import MemoryConfig
from ..simcluster import simulate
from ..workloads import workload_model
from .tables import Table

#: (containers, task concurrency, cache capacity, NewRatio) → paper's
#: (runtime minutes, aborted, cache hit ratio, GC overheads).
ROWS = [
    ((1, 2, 0.6, 2), (66, True, 0.30, 0.28)),
    ((1, 1, 0.6, 2), (59, False, 0.32, 0.14)),
    ((1, 2, 0.4, 2), (49, False, 0.19, 0.12)),
    ((1, 2, 0.6, 5), (53, False, 0.33, 0.27)),
]


def run() -> Table:
    model = workload_model("PageRank")
    t = Table(
        title="Table 5 — Manual tuning of PageRank",
        columns=[
            "containers", "task_concurrency", "cache_capacity", "new_ratio",
            "paper_runtime", "runtime", "paper_hit_ratio", "hit_ratio",
            "paper_gc", "gc",
        ],
        notes=[
            "Paper runtimes in minutes; '(aborted)' marks runs Spark gave up on.",
        ],
    )
    for (n, p, cache, nr), (p_rt, p_ab, p_h, p_gc) in ROWS:
        cfg = MemoryConfig(
            containers_per_node=n,
            task_concurrency=p,
            cache_capacity=cache,
            shuffle_capacity=0.0,
            new_ratio=nr,
        )
        r = simulate(model, cfg, CLUSTER_A)
        t.add(n, p, cache, nr, f"{p_rt}{' (aborted)' if p_ab else ''}",
              f"{r.runtime_min:.0f}{' (aborted)' if r.aborted else ''}", f"{p_h:.2f}",
              f"{r.layout.cache_hit_ratio:.2f}", f"{p_gc:.2f}", f"{r.gc_overhead:.2f}")
    return t
