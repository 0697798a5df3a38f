"""Statistics Generator: application profile → Table 6 statistics.

Implements §4.1 faithfully:

* M_i — heap usage at first task submission, 90th percentile across
  containers;
* M_c — maximum cache usage, 90th percentile;
* M_s — per-task shuffle peak, 90th percentile;
* M_u — per full-GC snapshot, ``(heap − M_i − cache_inst)/P −
  shuffle_inst``, 90th percentile over all snapshots;
* fallback when the profile has **no full GC events**: M_u from peak
  Old occupancy — a deliberate over-estimate (Figure 22) — plus the
  §4.1 remedial heuristics (smaller heap, more concurrency, higher
  NewRatio) implemented by :func:`profile_with_full_gc`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster import ClusterSpec
from ..config import NEW_RATIO_MAX, MemoryConfig
from ..simcluster.profile_gen import AppProfile, profile_app
from ..units import pctile
from ..workloads.base import WorkloadModel

#: Profiling runs :func:`profile_with_full_gc` makes before it settles
#: for a profile without full GC events.
MAX_PROFILE_ATTEMPTS = 3


@dataclass(frozen=True)
class ProfileStats:
    """The Table 6 statistics vector."""

    containers_per_node: int  # N
    heap_mb: float  # M_h
    cpu_avg_pct: float  # CPU_avg
    disk_avg_pct: float  # Disk_avg
    code_mb: float  # M_i (90th percentile)
    cache_mb: float  # M_c (90th percentile)
    shuffle_task_mb: float  # M_s (90th percentile)
    unmanaged_task_mb: float  # M_u (90th percentile)
    task_concurrency: int  # P
    cache_hit_ratio: float  # H
    spill_fraction: float  # S
    from_full_gc: bool  # whether M_u came from full-GC snapshots


def generate_stats(profile: AppProfile) -> ProfileStats:
    """Derive the Table 6 statistics from an application profile."""
    if not profile.containers:
        raise ValueError("profile has no containers")
    cfg, lay = profile.run.config, profile.run.layout
    p = cfg.task_concurrency
    code = pctile([c.code_mb for c in profile.containers], 0.9)
    cache = pctile([c.cache_peak_mb for c in profile.containers], 0.9)
    shuffle = pctile([c.shuffle_task_peak_mb for c in profile.containers], 0.9)

    unmanaged_samples: list[float] = []
    for c in profile.containers:
        for s in c.full_gc:
            per_task = (s.heap_used_mb - c.code_mb - s.cache_mb) / p - s.shuffle_task_mb
            unmanaged_samples.append(max(0.0, per_task))
    from_full_gc = bool(unmanaged_samples)
    if from_full_gc:
        unmanaged = pctile(unmanaged_samples, 0.9)
    else:
        # §4.1 "Importance of full GC events": fall back to peak Old
        # occupancy — reliable but a gross over-estimate of M_u.
        unmanaged = pctile(
            [max(0.0, (c.old_peak_mb - c.code_mb - c.cache_peak_mb) / p) for c in profile.containers],
            0.9,
        )

    return ProfileStats(
        containers_per_node=cfg.containers_per_node,
        heap_mb=profile.run.layout.geom.heap_mb,
        cpu_avg_pct=pctile([c.cpu_avg_pct for c in profile.containers], 0.5),
        disk_avg_pct=pctile([c.disk_avg_pct for c in profile.containers], 0.5),
        code_mb=code,
        cache_mb=cache,
        shuffle_task_mb=shuffle,
        unmanaged_task_mb=unmanaged,
        task_concurrency=p,
        cache_hit_ratio=lay.cache_hit_ratio,
        spill_fraction=lay.spill_fraction,
        from_full_gc=from_full_gc,
    )


def profile_with_full_gc(
    model: WorkloadModel,
    cfg: MemoryConfig,
    cluster: ClusterSpec,
    *,
    seed: int = 0,
) -> tuple[AppProfile, int]:
    """Profile ``model``; re-profile with GC-pressure heuristics if needed.

    Implements the §4.1 remedy: when the profile contains no full GC
    events, (a) decrease Heap Size (double containers per node),
    (b) increase Task Concurrency, and (c) increase NewRatio, then
    profile again. Returns (profile, number of profiling runs used).
    """
    attempts = 0
    current = cfg
    profile = None
    while attempts < MAX_PROFILE_ATTEMPTS:
        attempts += 1
        profile = profile_app(model, current, cluster, seed=seed + attempts)
        if profile.has_full_gc:
            return profile, attempts
        n = min(cluster.max_containers_per_node, current.containers_per_node * 2)
        p = min(cluster.max_task_concurrency(n), current.task_concurrency + 1)
        current = replace(
            current,
            containers_per_node=n,
            task_concurrency=p,
            new_ratio=min(NEW_RATIO_MAX, current.new_ratio + 2),
        )
    assert profile is not None
    return profile, attempts
