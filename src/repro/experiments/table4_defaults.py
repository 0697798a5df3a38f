"""Table 4: config values suggested by MaxResourceAllocation and
framework defaults on Cluster A."""
from __future__ import annotations

from ..cluster import CLUSTER_A
from ..config import max_resource_allocation
from ..simcluster.jvm import SURVIVOR_RATIO
from .tables import Table

#: The paper's Table 4 values.
PAPER = {
    "Containers per Node": "1",
    "Heap Size": "4404MB",
    "Task Concurrency": "2",
    "Cache Capacity + Shuffle Capacity": "0.6",
    "NewRatio": "2",
    "SurvivorRatio": "8",
}


def run() -> Table:
    cfg = max_resource_allocation(CLUSTER_A)
    ours = {
        "Containers per Node": str(cfg.containers_per_node),
        "Heap Size": f"{CLUSTER_A.heap_mb(cfg.containers_per_node):.0f}MB",
        "Task Concurrency": str(cfg.task_concurrency),
        "Cache Capacity + Shuffle Capacity": f"{cfg.cache_capacity + cfg.shuffle_capacity:g}",
        "NewRatio": str(cfg.new_ratio),
        "SurvivorRatio": str(SURVIVOR_RATIO),
    }
    t = Table(
        title="Table 4 — MaxResourceAllocation + framework defaults (Cluster A)",
        columns=["parameter", "paper", "ours"],
    )
    for k, v in PAPER.items():
        t.add(parameter=k, paper=v, ours=ours[k])
    return t
