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
from .tables import Table, minutes

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
        r = simulate(model, MemoryConfig(n, p, cache, 0.0, nr), CLUSTER_A)
        t.add(n, p, cache, nr, f"{p_rt}{' (aborted)' if p_ab else ''}", minutes(r, 0),
              p_h, r.layout.cache_hit_ratio, p_gc, r.gc_overhead)
    return t
