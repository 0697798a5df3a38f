"""GC-overhead model: fraction of task time spent in collections.

Three components, each anchored in an empirical finding of Section 3:

* **young**: young-GC frequency is the allocation rate over Eden; each
  pause costs a roughly constant stop-the-world slice that grows with
  intra-container contention (all p tasks of a container suspend
  together — the Figure 6 plateau and the thin-container advantage of
  Figure 4 both come from this term).
* **full_thrash**: once long-term + tenured demand exceeds Old, every
  young GC finds an almost-full Old and escalates to a full collection
  (Observation 5: tasks can spend >50% of time in GC).
* **spill**: shuffle grants above ½·Eden/p force full GCs on every
  spill (Observation 7 / Figure 10 — SortByKey at Shuffle Capacity 0.6
  spends ~60% of task time in GC).

The total is capped below 0.9; the failure model treats totals above
``GC_FAILURE_THRESHOLD`` as "GC overhead limit exceeded" JVM deaths.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..config import MemoryConfig
from ..workloads.base import WorkloadModel
from .memory import MemoryLayout

#: Seconds of stop-the-world per young collection (8 parallel GC threads
#: on a ~0.5–4GB young gen; matches sub-second ParallelGC minor pauses).
YOUNG_PAUSE_SEC = 0.12
#: Extra pause cost per additional concurrent task in the container
#: (larger live sets to scan + more allocation pressure per pause).
CONTENTION_PER_TASK = 0.18
#: Full-GC thrash slope: overhead added per unit of Old overflow.
FULL_THRASH_SLOPE = 1.6
#: Baseline share of time in occasional full collections.
FULL_BASELINE = 0.01
#: Spill-triggered full-GC slope (per unit of grant/(½·Eden/p) over 1)
#: and its cap. Calibrated so SortByKey at Shuffle Capacity 0.6 spends
#: ~50-60% of task time in GC (§3.3 / Figure 10) — a heavy slowdown, not
#: an unbounded one: each spill costs at most one full collection, so
#: the overhead saturates.
SPILL_GC_SLOPE = 0.30
SPILL_GC_CAP = 0.45
#: Extra young-GC pressure as the live heap approaches capacity
#: (collections become frequent and recover little).
PRESSURE_KNEE = 0.85
PRESSURE_SLOPE = 1.2
#: Upper bound; beyond GC_FAILURE_THRESHOLD the JVM is effectively dead.
GC_CAP = 0.9
GC_FAILURE_THRESHOLD = 0.55


@dataclass(frozen=True)
class GcBreakdown:
    """Per-mechanism GC time fractions for one container."""

    young: float
    full_thrash: float
    spill: float
    pressure: float

    @property
    def total(self) -> float:
        return min(GC_CAP, self.young + self.full_thrash + self.spill + self.pressure)


def gc_overhead(
    layout: MemoryLayout, model: WorkloadModel, cfg: MemoryConfig
) -> GcBreakdown:
    """GC time fractions for one container under ``cfg``."""
    p = cfg.task_concurrency
    geom = layout.geom

    # Young collections: p tasks allocate into a shared Eden; GCs/sec =
    # p·alloc_rate/eden; each costs YOUNG_PAUSE·(1 + contention·(p−1)).
    gcs_per_sec = p * model.alloc_mbps_per_task / geom.eden_mb
    young = gcs_per_sec * YOUNG_PAUSE_SEC * (1.0 + CONTENTION_PER_TASK * (p - 1))

    # Old overflow → every collection escalates to a full GC.
    overflow = max(0.0, layout.old_pressure - 1.0)
    full = FULL_BASELINE + FULL_THRASH_SLOPE * overflow

    # Spill-triggered full GCs (Observation 7), saturating.
    spill = 0.0
    if layout.spill_gc_ratio > 1.0 and model.shuffle_task_mb > 0:
        spill = min(SPILL_GC_CAP, SPILL_GC_SLOPE * (layout.spill_gc_ratio - 1.0))

    # Near-capacity heap: collections fire constantly and recover little.
    pressure = 0.0
    if layout.heap_pressure > PRESSURE_KNEE:
        pressure = PRESSURE_SLOPE * (layout.heap_pressure - PRESSURE_KNEE)

    return GcBreakdown(
        young=min(GC_CAP, young),
        full_thrash=min(GC_CAP, full),
        spill=min(GC_CAP, spill),
        pressure=min(GC_CAP, pressure),
    )
