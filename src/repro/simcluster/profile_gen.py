"""Simulated application profiles (the Thoth/PAT/JMX substitute, §4.1).

A real RelM deployment instruments every container with a JVM GC
profiler, IBM PAT resource timelines, and custom cache/shuffle
instrumentation. Here the simulator emits the same artifact: one
:class:`ContainerProfile` per container with

* heap usage at first task submission (→ Code Overhead M_i),
* peak cache and per-task shuffle usage (→ M_c, M_s),
* a sequence of **post-full-GC snapshots** — (heap used, instantaneous
  cache, instantaneous per-task shuffle) triples — from which the
  Statistics Generator recovers Task Unmanaged M_u exactly the way
  §4.1 describes,
* peak Old-pool occupancy (the fallback M_u estimator when no full GC
  events exist — the path Figure 22 shows to over-estimate).

Per-container jitter is drawn from a seeded RNG so 90th-percentile
statistics are meaningful and profiles differ run to run without
breaking reproducibility.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec
from ..config import MemoryConfig
from ..units import stable_seed
from ..workloads.base import WorkloadModel
from .runtime import SimulatedRun, simulate

#: Cap on profiled containers kept in an AppProfile (matches practice:
#: profiling frameworks sample a subset of a large cluster).
MAX_PROFILED_CONTAINERS = 8
#: Relative jitter across containers for memory statistics.
CONTAINER_JITTER = 0.04
#: Old occupancy drifts to this fraction of capacity when full GCs never
#: run (uncollected garbage accumulates) — the source of the fallback
#: over-estimation in Figure 22.
OLD_GARBAGE_FILL = 0.9


@dataclass(frozen=True)
class FullGcSnapshot:
    """State right after one full GC (the §4.1 measurement instant)."""

    heap_used_mb: float
    cache_mb: float
    shuffle_task_mb: float


@dataclass(frozen=True)
class ContainerProfile:
    """Per-container instrumentation timeline summary."""

    container_id: int
    heap_mb: float
    code_mb: float
    cache_peak_mb: float
    shuffle_task_peak_mb: float
    old_peak_mb: float
    cpu_avg_pct: float
    disk_avg_pct: float
    full_gc: tuple[FullGcSnapshot, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class AppProfile:
    """One profiled application run (the RelM tuner's sole input): the
    run itself plus its per-container instrumentation."""

    run: SimulatedRun
    containers: tuple[ContainerProfile, ...]

    @property
    def has_full_gc(self) -> bool:
        return any(c.full_gc for c in self.containers)


def profile_app(
    model: WorkloadModel,
    cfg: MemoryConfig,
    cluster: ClusterSpec,
    *,
    seed: int = 0,
) -> AppProfile:
    """Simulate one run of ``model`` under ``cfg`` and instrument it."""
    run = simulate(model, cfg, cluster, seed=seed)
    lay = run.layout
    p = cfg.task_concurrency
    rng = np.random.default_rng(stable_seed(model.name, "profile", seed))

    n_prof = min(MAX_PROFILED_CONTAINERS, lay.containers_total)
    containers = []
    for i in range(n_prof):
        j = lambda: float(1.0 + rng.normal(0.0, CONTAINER_JITTER))  # noqa: E731
        code = model.code_mb * j()
        cache_peak = lay.cache_used_mb * j() if lay.cache_used_mb > 0 else 0.0
        shuffle_peak = lay.shuffle_used_task_mb * j() if lay.shuffle_used_task_mb > 0 else 0.0

        snapshots: list[FullGcSnapshot] = []
        if run.full_gc_events > 0:
            for _ in range(run.full_gc_events):
                # Tasks are at random progress points when the full GC
                # fires; their live footprint is a fraction of peak.
                progress = float(rng.uniform(0.55, 1.0))
                cache_now = cache_peak * float(rng.uniform(0.8, 1.0)) if cache_peak else 0.0
                shuffle_now = shuffle_peak * progress if shuffle_peak else 0.0
                unmanaged_now = model.unmanaged_task_mb * progress * j()
                heap_used = code + cache_now + p * (unmanaged_now + shuffle_now)
                snapshots.append(
                    FullGcSnapshot(
                        heap_used_mb=heap_used,
                        cache_mb=cache_now,
                        shuffle_task_mb=shuffle_now,
                    )
                )
            old_peak = min(lay.geom.old_mb, lay.tenured_demand_mb * j())
        else:
            # No full collection ever ran: Old keeps accumulating
            # garbage and its peak says little about true task memory.
            old_peak = min(
                lay.geom.old_mb * OLD_GARBAGE_FILL * j(),
                lay.geom.old_mb,
            )

        containers.append(
            ContainerProfile(
                container_id=i,
                heap_mb=lay.geom.heap_mb,
                code_mb=code,
                cache_peak_mb=cache_peak,
                shuffle_task_peak_mb=shuffle_peak,
                old_peak_mb=old_peak,
                cpu_avg_pct=run.cpu_avg_pct * j(),
                disk_avg_pct=run.disk_avg_pct * j(),
                full_gc=tuple(snapshots),
            )
        )

    return AppProfile(run=run, containers=tuple(containers))
