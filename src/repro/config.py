"""Memory configuration knobs (paper Table 1) and the tuning search space.

A :class:`MemoryConfig` carries the five knobs every policy tunes
(SurvivorRatio stays at the JVM default of 8 throughout, as in §6.1 —
:data:`repro.simcluster.jvm.SURVIVOR_RATIO`):

* ``containers_per_node`` — resource-manager level (Figure 1),
* ``task_concurrency`` — slots per container,
* ``cache_capacity`` / ``shuffle_capacity`` — fractions of heap handed to
  Spark's unified memory pool (their sum is the unified-pool fraction),
* ``new_ratio`` — JVM Old:Young capacity ratio (ParallelGC).

Also defined here: the Amazon-EMR ``MaxResourceAllocation`` default policy
(Table 4) and the knob values of the discretized grid the Exhaustive
Search policy probes (§6.1: 4 values per knob, only the dominant one of
Cache/Shuffle varied, the minor pool pinned at ``MINOR_POOL_CAPACITY``).
:class:`repro.tuners.base.ConfigSpace` builds the grid from them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterSpec

#: §6.1 — NewRatio is capped at 9 so Young keeps >=10% of heap.
NEW_RATIO_MIN = 1
NEW_RATIO_MAX = 9

#: Minor-pool capacity pinned by Exhaustive Search and BO (§6.1).
MINOR_POOL_CAPACITY = 0.1

#: Grid values for the dominant memory pool fraction and NewRatio (§6.1:
#: "discretizing the domain of each parameter into 4 values").
GRID_POOL_FRACTIONS = (0.2, 0.4, 0.6, 0.8)
GRID_NEW_RATIOS = (1, 3, 5, 7)
GRID_TASK_CONCURRENCY = (1, 2, 4, 8)


@dataclass(frozen=True)
class MemoryConfig:
    """One point of the configuration space (Table 1 knobs)."""

    containers_per_node: int
    task_concurrency: int
    cache_capacity: float
    shuffle_capacity: float
    new_ratio: int

    def __post_init__(self) -> None:
        if self.containers_per_node < 1:
            raise ValueError("containers_per_node must be >= 1")
        if self.task_concurrency < 1:
            raise ValueError("task_concurrency must be >= 1")
        for name in ("cache_capacity", "shuffle_capacity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.cache_capacity + self.shuffle_capacity > 1.0 + 1e-9:
            raise ValueError("unified pool (cache+shuffle) cannot exceed heap")
        if not NEW_RATIO_MIN <= self.new_ratio <= NEW_RATIO_MAX:
            raise ValueError(f"new_ratio must be in [1, 9], got {self.new_ratio}")

    def as_row(self) -> dict:
        """Row used by the experiment tables (Table 8 column order)."""
        return {
            "containers_per_node": self.containers_per_node,
            "task_concurrency": self.task_concurrency,
            "cache_capacity": round(self.cache_capacity, 2),
            "shuffle_capacity": round(self.shuffle_capacity, 2),
            "new_ratio": self.new_ratio,
        }


def config_rows(cfgs: list[MemoryConfig]) -> np.ndarray:
    """The (k, 5) float rows of ``cfgs`` in field order (n, p, cache,
    shuffle, NewRatio): the batch form the tuners search over."""
    knobs = [(c.containers_per_node, c.task_concurrency, c.cache_capacity, c.shuffle_capacity, c.new_ratio)
             for c in cfgs]
    return np.array(knobs, dtype=float).reshape(-1, 5)


def check_rows(rows: np.ndarray) -> None:
    """:class:`MemoryConfig`'s checks over a (k, 5) batch of rows, so a
    batch that is never turned into configs is held to the same rules."""
    n, p, cache, shuffle, nr = np.asarray(rows, dtype=float).reshape(-1, 5).T
    if (n < 1).any():
        raise ValueError("containers_per_node must be >= 1")
    if (p < 1).any():
        raise ValueError("task_concurrency must be >= 1")
    for name, v in (("cache_capacity", cache), ("shuffle_capacity", shuffle)):
        if not ((0.0 <= v) & (v <= 1.0)).all():
            raise ValueError(f"{name} must be in [0, 1]")
    if (cache + shuffle > 1.0 + 1e-9).any():
        raise ValueError("unified pool (cache+shuffle) cannot exceed heap")
    if not ((NEW_RATIO_MIN <= nr) & (nr <= NEW_RATIO_MAX)).all():
        raise ValueError("new_ratio must be in [1, 9]")


def max_resource_allocation(cluster: ClusterSpec) -> MemoryConfig:
    """Amazon EMR's MaxResourceAllocation + framework defaults (Table 4).

    One fat container per node with all the heap; Task Concurrency 2;
    unified pool fraction 0.6 (Spark's ``spark.memory.fraction`` default),
    which we split as cache 0.4 / shuffle 0.2 mirroring Spark's storage
    share; NewRatio 2, SurvivorRatio 8 (ParallelGC defaults).
    """
    return MemoryConfig(
        containers_per_node=1,
        task_concurrency=2,
        cache_capacity=0.4,
        shuffle_capacity=0.2,
        new_ratio=2,
    )
