"""RelM: the white-box memory autotuner (paper §4).

Pipeline (Figure 12): profile statistics → for every enumerable
container size, **Initializer** (Eqs 1–4) sets each pool independently,
then **Arbitrator** (Algorithm 1) resolves contention to guarantee
safety, and the **Selector** ranks the per-container-size winners by the
utility score ``U`` (Line 13) — the fraction of heap put to productive
use — returning the best as the recommendation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..config import NEW_RATIO_MAX, NEW_RATIO_MIN, MemoryConfig
from ..profiler.stats import ProfileStats
from ..simcluster.jvm import HeapGeometry
from ..units import clamp

#: Safety factor δ: fraction of memory kept unassigned (§6.1 uses 0.1).
DELTA = 0.1
#: Guard on Algorithm 1's loop (it terminates long before this; see the
#: §4.3 analysis — iterations are linear in the degree of parallelism).
MAX_ARBITRATION_ITERS = 200


@dataclass(frozen=True)
class InitialConfig:
    """Initializer output for one container size (Eqs 1–4)."""

    heap_mb: float
    containers_per_node: int
    cache_mb: float  # m_c
    shuffle_task_mb: float  # m_s (per task)
    task_concurrency: int  # p
    new_ratio: int  # NR
    old_mb: float  # m_o
    eden_mb: float  # m_e


@dataclass(frozen=True)
class ArbitratedConfig(InitialConfig):
    """Arbitrator output (Algorithm 1): the pools made safe + utility."""

    utility: float
    iterations: int

    def to_memory_config(self) -> MemoryConfig:
        """Translate pool sizes into the Table 1 knob vector.

        Cache Capacity is ``m_c/m_h``; Shuffle Capacity is the *total*
        shuffle pool (p tasks × per-task grant) over heap; NewRatio
        follows from the arbitrated Old size.
        """
        f_c = clamp(self.cache_mb / self.heap_mb, 0.0, 0.95)
        f_s = clamp(self.task_concurrency * self.shuffle_task_mb / self.heap_mb, 0.0, 0.95 - f_c)
        return MemoryConfig(
            containers_per_node=self.containers_per_node,
            task_concurrency=self.task_concurrency,
            cache_capacity=round(f_c, 2),
            shuffle_capacity=round(f_s, 2),
            new_ratio=_new_ratio_from_old(self.old_mb, self.heap_mb),
        )


def _new_ratio_from_old(old_mb: float, heap_mb: float) -> int:
    """Invert old = heap·NR/(NR+1); ceil keeps Old at least ``old_mb``.

    Eq 3 calls it with the long-term pools (code + cache) as ``old_mb``.
    """
    young = heap_mb - old_mb
    if young <= 0:
        return NEW_RATIO_MAX
    return int(clamp(math.ceil(old_mb / young), NEW_RATIO_MIN, NEW_RATIO_MAX))


def pool_demands(stats: ProfileStats, heap_mb: float) -> tuple[float, float]:
    """Eqs 1 and 2, uncapped: (cache m_c, per-task shuffle m_s) demand
    for a heap of ``heap_mb``.

    Eq 1 scales the observed cache usage by the hit ratio to the true
    demand (at most the whole heap); Eq 2 scales the observed per-task
    shuffle usage by the spill fraction.
    """
    if stats.cache_mb > 0 and stats.cache_hit_ratio > 0:
        m_c = heap_mb * min(stats.cache_mb / (stats.cache_hit_ratio * stats.heap_mb), 1.0)
    else:
        m_c = 0.0
    if stats.shuffle_task_mb > 0:
        m_s = stats.shuffle_task_mb / max(1e-6, 1.0 - stats.spill_fraction / stats.task_concurrency)
    else:
        m_s = 0.0
    return m_c, m_s


def initialize(stats: ProfileStats, n: int, cluster: ClusterSpec) -> InitialConfig:
    """Initializer (§4.2): optimize each pool independently for ``n``
    containers per node.

    Implements Eq 1 (cache from hit ratio), Eq 2 (shuffle from spill
    fraction), Eq 3 (GC pools), Eq 4 (task concurrency from CPU, disk
    and memory bottlenecks, assuming linear scaling).
    """
    m_h = cluster.heap_mb(n)

    # Eqs 1 and 2, capped so δ of the heap stays unassigned.
    m_c, m_s = pool_demands(stats, m_h)
    m_c = min(m_c, (1.0 - DELTA) * m_h)
    m_s = min(m_s, (1.0 - DELTA) * m_h)

    # Eq 3 — NewRatio sized so Old just fits the long-term pools.
    nr = _new_ratio_from_old(stats.code_mb + m_c, m_h)
    geom = HeapGeometry(m_h, nr)

    # Eq 4 — concurrency bounded by each resource, linear model. The
    # paper's formula divides node utilization by P alone because its
    # profiles always come from MaxResourceAllocation (one container per
    # node); we also divide by the profiled containers-per-node N so a
    # re-profiled run (profile_with_full_gc may raise N) stays correct.
    tasks_per_node = stats.containers_per_node * stats.task_concurrency
    per_task_cpu = stats.cpu_avg_pct / tasks_per_node
    per_task_disk = stats.disk_avg_pct / tasks_per_node
    p_cpu = (1.0 / n) * (1.0 - DELTA) * 100.0 / max(1e-6, per_task_cpu)
    p_disk = (1.0 / n) * (1.0 - DELTA) * 100.0 / max(1e-6, per_task_disk)
    p_mem = (1.0 - DELTA) * m_h / max(1e-6, stats.unmanaged_task_mb)
    p = int(min(p_cpu, p_disk, p_mem, cluster.max_task_concurrency(n)))
    p = max(1, p)

    return InitialConfig(
        heap_mb=m_h,
        containers_per_node=n,
        cache_mb=m_c,
        shuffle_task_mb=m_s,
        task_concurrency=p,
        new_ratio=nr,
        old_mb=geom.old_mb,
        eden_mb=geom.eden_mb,
    )


def arbitrate(init: InitialConfig, stats: ProfileStats) -> ArbitratedConfig | None:
    """Arbitrator (Algorithm 1). Returns ``None`` when the container is
    too small to run even a single task (Line 1's insufficiency check).
    """
    m_h = init.heap_mb
    m_i, m_u = stats.code_mb, stats.unmanaged_task_mb

    # Line 1: bare minimum — one task must fit.
    if (m_i + m_u) > (1.0 - DELTA) * m_h:
        return None

    p = init.task_concurrency
    m_c = init.cache_mb
    m_s = init.shuffle_task_mb
    old = init.old_mb
    eden = init.eden_mb
    nr = init.new_ratio

    action = 0
    iters = 0
    # Lines 4–10: shrink demand / grow Old round-robin until the
    # long-term + tenured demand fits in Old.
    while (m_i + p * m_u + m_c) > old:
        if iters >= MAX_ARBITRATION_ITERS:
            return None  # cannot be made safe on this container size
        iters += 1
        act = action % 3
        action += 1
        if act == 0:
            # I. Decrease Task Concurrency.
            if p > 1:
                p -= 1
        elif act == 1:
            # II. Reduce Cache Storage by M_u; re-derive GC pools (Eq 3).
            if m_c - m_u > 0:
                m_c -= m_u
                nr = _new_ratio_from_old(m_i + m_c, m_h)
                geom = HeapGeometry(m_h, nr)
                old, eden = geom.old_mb, geom.eden_mb
        else:
            # III. Grow Old by M_u (trade GC overhead for safety, Obs 6).
            if old + m_u < (1.0 - DELTA) * m_h:
                old += m_u
                nr = _new_ratio_from_old(old, m_h)
                eden = HeapGeometry(m_h, nr).eden_mb
        # If every action is exhausted, the loop cannot progress.
        if p == 1 and m_c - m_u <= 0 and old + m_u >= (1.0 - DELTA) * m_h:
            if (m_i + p * m_u + m_c) > old:
                return None

    # Line 11: bound shuffle by half the per-task Eden share (Obs 7).
    m_s = min(m_s, 0.5 * eden / p)
    # Line 13: utility — fraction of heap put to productive use.
    utility = (m_i + m_c + p * (m_u + m_s)) / m_h
    return ArbitratedConfig(
        heap_mb=m_h,
        containers_per_node=init.containers_per_node,
        cache_mb=m_c,
        shuffle_task_mb=m_s,
        task_concurrency=p,
        new_ratio=nr,
        old_mb=old,
        eden_mb=eden,
        utility=utility,
        iterations=iters,
    )


def relm_recommend(
    stats: ProfileStats, cluster: ClusterSpec
) -> tuple[MemoryConfig, ArbitratedConfig, list[ArbitratedConfig]]:
    """Enumerate container sizes, arbitrate each, pick the max-utility one.

    Returns (recommended knob vector, winning arbitrated configuration,
    all candidates in enumeration order) — the candidate list backs the
    Figure 24 utility-vs-performance ranking analysis.
    """
    candidates: list[ArbitratedConfig] = []
    for n in range(1, cluster.max_containers_per_node + 1):
        arb = arbitrate(initialize(stats, n, cluster), stats)
        if arb is not None:
            candidates.append(arb)
    if not candidates:
        raise ValueError(
            "RelM: no container size can safely run this workload "
            f"(M_i={stats.code_mb:.0f}MB, M_u={stats.unmanaged_task_mb:.0f}MB)"
        )
    best = max(candidates, key=lambda c: c.utility)
    return best.to_memory_config(), best, candidates
