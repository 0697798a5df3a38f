"""Table 4: config values suggested by MaxResourceAllocation and
framework defaults on Cluster A."""
from __future__ import annotations

from ..cluster import CLUSTER_A
from ..config import max_resource_allocation
from ..simcluster.jvm import SURVIVOR_RATIO
from .tables import Table


def run() -> Table:
    cfg = max_resource_allocation(CLUSTER_A)
    t = Table(
        title="Table 4 — MaxResourceAllocation + framework defaults (Cluster A)",
        columns=["parameter", "paper", "ours"],
    )
    for row in (
        ("Containers per Node", "1", str(cfg.containers_per_node)),
        ("Heap Size", "4404MB", f"{CLUSTER_A.heap_mb(cfg.containers_per_node):.0f}MB"),
        ("Task Concurrency", "2", str(cfg.task_concurrency)),
        ("Cache Capacity + Shuffle Capacity", "0.6", f"{cfg.cache_capacity + cfg.shuffle_capacity:g}"),
        ("NewRatio", "2", str(cfg.new_ratio)),
        ("SurvivorRatio", "8", str(SURVIVOR_RATIO)),
    ):
        t.add(*row)
    return t
