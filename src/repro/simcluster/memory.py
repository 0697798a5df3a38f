"""Application memory-pool occupancy and safety analysis for one config.

Computes, for a (workload, config, cluster) triple, the occupancy of the
four Figure 3 pools per container, the cache hit ratio, the shuffle
spill fraction, and the pressure ratios that feed the GC model and the
failure model:

* ``heap_pressure``  — live demand vs usable heap (heap-OOM driver,
  Observation 2 / Figure 5 failure cause (a)),
* ``old_pressure``   — long-term + tenured demand vs Old capacity
  (full-GC thrash, Observation 5; promotion-failure OOMs),
* ``spill_gc_ratio`` — per-task shuffle grant vs ½·Eden/p
  (spill-triggered full GCs, Observation 7),
* ``rss_overrun_mb`` — physical memory beyond the resource-manager cap
  (container kills, Observation 6 / Figure 11 failure cause (b)).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..config import MemoryConfig
from ..workloads.base import WorkloadModel
from .jvm import HeapGeometry

#: RSS model: off-heap NIO buffers pin ``net_task_mb`` bytes per task for
#: roughly one young-GC period; larger Eden (low NewRatio) → less
#: frequent collection of the on-heap references → more retained
#: off-heap memory (Figure 11). retained = net · (BASE + SPAN/(NR+1)).
RSS_RETAIN_BASE = 0.30
RSS_RETAIN_SPAN = 1.40
#: JVM process overhead beyond heap (metaspace, thread stacks, code cache)
#: as a fraction of heap — the Figure 2 "overhead space".
JVM_PROC_OVERHEAD_FRAC = 0.07
#: When the shuffle grant exceeds the steady-state need, sorters/mergers
#: transiently hold up to this multiple of the need (merge phases keep
#: both the sorted runs and the output window live). This is how
#: over-provisioned shuffle pools turn unsafe (Observation 2 — the
#: Figure 5 SortByKey failures at 70% Shuffle Capacity).
MERGE_PEAK_FACTOR = 2.0


@dataclass(frozen=True)
class MemoryLayout:
    """Resolved per-container memory occupancy for one configuration."""

    geom: HeapGeometry
    containers_total: int
    #: Pool occupancies per container (MB).
    cache_capacity_mb: float
    cache_used_mb: float
    shuffle_grant_task_mb: float
    shuffle_used_task_mb: float
    #: Derived application metrics.
    cache_hit_ratio: float
    spill_fraction: float
    #: Pressure ratios.
    live_demand_mb: float
    heap_pressure: float
    tenured_demand_mb: float
    old_pressure: float
    spill_gc_ratio: float
    rss_overrun_mb: float


def layout(model: WorkloadModel, cfg: MemoryConfig, cluster: ClusterSpec) -> MemoryLayout:
    """Resolve pool occupancy and pressures for ``cfg`` on ``cluster``."""
    n = cfg.containers_per_node
    p = cfg.task_concurrency
    heap = cluster.heap_mb(n)
    geom = HeapGeometry(heap, cfg.new_ratio)
    containers = cluster.nodes * n

    # --- Cache Storage (Eq 1 territory): bounded by the configured
    # capacity fraction; demand spreads evenly over containers.
    cache_cap = cfg.cache_capacity * heap
    demand_per_container = model.cache_mb / containers if model.uses_cache else 0.0
    cache_used = min(cache_cap, demand_per_container)
    hit = 1.0 if not model.uses_cache else min(
        1.0, (cache_used * containers) / model.cache_mb
    )

    # --- Task Shuffle: the pool splits evenly across the p concurrent
    # tasks; anything above the grant spills to disk (§3.3).
    grant = cfg.shuffle_capacity * heap / p
    used = min(grant, model.shuffle_task_mb)
    spill = 0.0
    if model.shuffle_task_mb > 0:
        spill = max(0.0, 1.0 - grant / model.shuffle_task_mb)

    # --- Pressures. Live demand counts the *peak* shuffle footprint:
    # a grant above the steady need lets merge phases balloon to
    # MERGE_PEAK_FACTOR x the need before spilling.
    shuffle_peak = min(grant, MERGE_PEAK_FACTOR * model.shuffle_task_mb)
    live = model.code_mb + cache_used + p * (model.unmanaged_task_mb + shuffle_peak)
    heap_pressure = live / geom.usable_mb

    # Long-term + tenured-task demand vs Old (Observation 5). Shuffle
    # objects normally die young, but when the per-task grant exceeds
    # ½·Eden/p they survive collections and tenure prematurely (§3.4).
    half_eden_share = 0.5 * geom.eden_mb / p
    premature = max(0.0, used - half_eden_share)
    tenured = (
        model.code_mb
        + cache_used
        + p * (model.unmanaged_task_mb * model.tenured_frac + premature)
    )
    old_pressure = tenured / geom.old_mb
    spill_gc_ratio = used / half_eden_share if half_eden_share > 0 else 0.0

    # --- Physical memory vs the resource-manager cap (Figure 11).
    retained_offheap = model.net_task_mb * p * (
        RSS_RETAIN_BASE + RSS_RETAIN_SPAN / (cfg.new_ratio + 1)
    )
    phys_cap = cluster.node_phys_mb / n
    rss = heap * (1.0 + JVM_PROC_OVERHEAD_FRAC) + retained_offheap
    rss_overrun = max(0.0, rss - phys_cap)

    return MemoryLayout(
        geom=geom,
        containers_total=containers,
        cache_capacity_mb=cache_cap,
        cache_used_mb=cache_used,
        shuffle_grant_task_mb=grant,
        shuffle_used_task_mb=used,
        cache_hit_ratio=hit,
        spill_fraction=spill,
        live_demand_mb=live,
        heap_pressure=heap_pressure,
        tenured_demand_mb=tenured,
        old_pressure=old_pressure,
        spill_gc_ratio=spill_gc_ratio,
        rss_overrun_mb=rss_overrun,
    )
