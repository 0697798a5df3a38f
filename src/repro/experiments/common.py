"""Shared experiment plumbing: default configs, profiles, thresholds."""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from ..cluster import CLUSTER_A, ClusterSpec, cluster_by_name
from ..config import MemoryConfig, max_resource_allocation
from ..profiler import ProfileStats, generate_stats, profile_with_full_gc
from ..tuners.base import Objective, TuningResult
from ..tuners.exhaustive import exhaustive_search
from ..workloads import dominant_pool, workload_model


def default_config(name: str, cluster: ClusterSpec = CLUSTER_A) -> MemoryConfig:
    """The MaxResourceAllocation default as applied to one workload.

    A workload that does not shuffle through the unified pool (Table 6:
    M_s=0; of the six, PageRank) gets its whole default unified fraction
    (0.6) as Cache Capacity — matching the Table 5 "default" row.
    """
    cfg = max_resource_allocation(cluster)
    if workload_model(name).shuffle_task_mb == 0:
        cfg = replace(cfg, cache_capacity=0.6, shuffle_capacity=0.0)
    return cfg


@lru_cache(maxsize=None)
def profiled_stats(name: str, cluster_name: str, seed: int, /) -> ProfileStats:
    """Profile a workload under its default config (re-profiling with the
    §4.1 GC-pressure heuristics when needed) and derive Table 6 stats."""
    cluster = cluster_by_name(cluster_name)
    model = workload_model(name)
    profile, _ = profile_with_full_gc(model, default_config(name, cluster), cluster, seed=seed)
    return generate_stats(profile)


@lru_cache(maxsize=None)
def grid_runtimes(name: str, cluster_name: str, seed: int, /) -> TuningResult:
    """The §6.1 Exhaustive Search session: every grid configuration, in
    grid order. This is the sweep's one cache, so it runs once per
    (workload, cluster, seed) per process."""
    objective = Objective(workload_model(name), cluster_by_name(cluster_name), seed=seed)
    return exhaustive_search(objective, dominant_pool=dominant_pool(name))


def top5_threshold(name: str, cluster_name: str, seed: int) -> float:
    """Runtime of the top-5th-percentile grid configuration (§6.2)."""
    rts = sorted(s.runtime_sec for s in grid_runtimes(name, cluster_name, seed).samples)
    return rts[max(0, int(0.05 * len(rts)) - 1)]
