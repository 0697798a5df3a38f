"""Wave-based runtime and failure model → :class:`SimulatedRun`.

Failure modes (Figure 5 causes, §3.1):

* **heap OOM** — live demand over usable heap (deserialization buffers /
  network fetch allocations fail),
* **GC-overhead-limit** — total GC fraction beyond
  :data:`~repro.simcluster.gc_model.GC_FAILURE_THRESHOLD` (the JVM's
  "GC overhead limit exceeded" death; what kills K-means at Cache
  Capacity 0.8 in Figure 7),
* **RM kill** — resident set beyond the container's physical cap
  (Figure 11; governed by NewRatio via off-heap buffer retention).

A container failure does not abort the application: Spark retries tasks
on replacement containers (runtime penalty); past four task retries the
job aborts (§3.1). Severities map to expected failure counts; a seeded
RNG per (workload, config) draws the actual counts so Figure 5-style
variability exists run-to-run yet every experiment table is
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import ClusterSpec
from ..config import MemoryConfig
from ..units import ceil_div, stable_seed
from ..workloads.base import WorkloadModel
from .gc_model import GC_FAILURE_THRESHOLD, GC_CAP, GcBreakdown, gc_overhead
from .memory import MemoryLayout, layout

#: Severity → expected container-failure scaling.
OOM_FAILURE_SCALE = 8.0
GC_FAILURE_SCALE = 6.0
RSS_FAILURE_SCALE = 10.0
#: Abort once expected task-retry pressure passes this severity.
ABORT_SEVERITY = 0.30
#: Runtime inflation per failed container (task re-execution + container
#: re-acquisition), relative to the failure-free runtime.
RETRY_PENALTY = 0.35
#: Wall-clock multiplier of an aborted run relative to its failure-free
#: estimate (retries burn time before the job gives up — the aborted
#: PageRank run in Table 5 took 66 min vs 59 min for a clean run).
ABORT_WALL_FACTOR = 1.10
#: Multiplicative log-normal runtime noise (sigma).
NOISE_SIGMA = 0.03
#: Effective spill I/O bytes per spilled byte: compressed sequential
#: write + merge read, largely overlapped with computation. Kept low on
#: purpose — Iorgulescu et al. and §3.3 both find spilling has limited
#: runtime impact; the cost of large shuffle grants is GC, not disk.
SPILL_IO_FACTOR = 0.5
#: Per-task cap on network share even when few tasks run.
MAX_NET_SHARE_MBPS = 110.0
#: Per-task cap on disk share (a single HDFS stream tops out well below
#: the aggregate spindle bandwidth).
MAX_DISK_SHARE_MBPS = 80.0
#: Conditions under which the profile contains full GC events (§4.1).
FULLGC_HEAP_PRESSURE = 0.55
FULLGC_OLD_PRESSURE = 0.90


@dataclass(frozen=True)
class SimulatedRun:
    """Observables of one simulated application execution. The cache hit
    ratio H and spill fraction S are the layout's."""

    config: MemoryConfig
    runtime_sec: float
    aborted: bool
    failed_containers: int
    gc: GcBreakdown
    layout: MemoryLayout
    cpu_avg_pct: float
    disk_avg_pct: float
    full_gc_events: int

    @property
    def gc_overhead(self) -> float:
        return self.gc.total

    @property
    def runtime_min(self) -> float:
        return self.runtime_sec / 60.0


def _severities(lay: MemoryLayout, gc: GcBreakdown) -> tuple[float, float, float]:
    oom = max(0.0, lay.heap_pressure - 1.0)
    # Spill-triggered collections burn time but do not exhaust the heap
    # — the paper's high-Shuffle-Capacity runs (Figure 10) degrade yet
    # complete. Only thrash/pressure/young overheads count toward the
    # "GC overhead limit exceeded" death mode.
    gc_lethal = min(GC_CAP, gc.total - gc.spill)
    gcs = 0.0
    if gc_lethal > GC_FAILURE_THRESHOLD:
        gcs = (gc_lethal - GC_FAILURE_THRESHOLD) / (GC_CAP - GC_FAILURE_THRESHOLD)
    rss = lay.rss_overrun_mb / max(1.0, 0.10 * lay.geom.heap_mb)
    return oom, gcs, rss


def simulate(
    model: WorkloadModel,
    cfg: MemoryConfig,
    cluster: ClusterSpec,
    *,
    seed: int = 0,
) -> SimulatedRun:
    """Run ``model`` under ``cfg`` on ``cluster`` and return observables."""
    lay = layout(model, cfg, cluster)
    gc = gc_overhead(lay, model, cfg)

    n, p = cfg.containers_per_node, cfg.task_concurrency
    slots = cluster.nodes * n * p

    # --- Per-task time: CPU with core contention, network fetch through
    # a shared NIC, spill I/O through a shared disk, inflated by GC.
    cores_demand = n * p * model.cpu_cores_per_task
    cpu_slow = max(1.0, cores_demand / cluster.cores_per_node)
    disk_demand = n * p * model.disk_mbps_per_task
    spill_bytes = SPILL_IO_FACTOR * lay.spill_fraction * model.shuffle_task_mb
    net_share = min(MAX_NET_SHARE_MBPS, cluster.network_mbps / max(1, n * p))
    disk_share = min(MAX_DISK_SHARE_MBPS, cluster.disk_mbps / max(1, n * p))

    gc_free = max(1e-6, 1.0 - gc.total)

    def task_time(cpu_sec: float) -> float:
        t = (
            cpu_sec * cpu_slow
            + model.partition_mb / disk_share  # input scan through shared disks
            + model.net_task_mb / net_share
            + spill_bytes / max(20.0, disk_share)
        )
        return t / gc_free

    waves = ceil_div(model.n_partitions, slots)
    total = model.stage_overhead_sec + waves * task_time(model.cpu_sec_per_task)
    iter_cpu = model.cpu_sec_per_task * (
        model.iter_cpu_frac + (1.0 - lay.cache_hit_ratio) * model.recompute_frac
    )
    # Every iteration re-runs the same stage; adding it once per
    # iteration, not as ``iterations * stage``, keeps the runtime's rounding.
    stage = model.stage_overhead_sec + waves * task_time(iter_cpu)
    for _ in range(model.iterations):
        total += stage

    # --- Failures.
    rng = np.random.default_rng(
        stable_seed(model.name, cfg.containers_per_node, cfg.task_concurrency,
                    round(cfg.cache_capacity, 3), round(cfg.shuffle_capacity, 3),
                    cfg.new_ratio, seed)
    )
    oom, gcs, rss = _severities(lay, gc)
    expected = lay.containers_total * min(
        2.5, oom * OOM_FAILURE_SCALE + gcs * GC_FAILURE_SCALE + rss * RSS_FAILURE_SCALE
    )
    failed = int(rng.poisson(expected)) if expected > 0 else 0
    severity = oom + gcs + rss
    aborted = severity >= ABORT_SEVERITY or failed > 2 * lay.containers_total

    total *= 1.0 + RETRY_PENALTY * min(3.0, failed / max(1, lay.containers_total))
    if aborted:
        total *= ABORT_WALL_FACTOR
    total *= float(np.exp(rng.normal(0.0, NOISE_SIGMA)))

    cpu_avg = min(100.0, 100.0 * cores_demand / cluster.cores_per_node)
    disk_avg = min(100.0, 100.0 * (disk_demand + spill_bytes * 0.2) / cluster.disk_mbps)

    has_full_gc = (
        lay.heap_pressure > FULLGC_HEAP_PRESSURE
        or lay.old_pressure > FULLGC_OLD_PRESSURE
        or lay.spill_gc_ratio > 1.0
    )
    full_gc_events = int(max(0.0, total / 30.0)) + 2 if has_full_gc else 0

    return SimulatedRun(
        config=cfg,
        runtime_sec=float(total),
        aborted=bool(aborted),
        failed_containers=int(failed),
        gc=gc,
        layout=lay,
        cpu_avg_pct=float(cpu_avg),
        disk_avg_pct=float(disk_avg),
        full_gc_events=full_gc_events,
    )
