"""Shared tuner machinery: the search space and the objective runner.

The configuration space follows §6.1: four tuned dimensions —
Containers per Node, Task Concurrency, the dominant pool fraction
(Cache Capacity for cache-heavy apps, Shuffle Capacity otherwise; the
minor pool is pinned at ``MINOR_POOL_CAPACITY``), and NewRatio. The
objective is the application runtime; an aborted run scores twice the
worst runtime seen so far so failing regions rank low during
exploration (§6.1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec
from ..config import (
    GRID_NEW_RATIOS,
    GRID_POOL_FRACTIONS,
    GRID_TASK_CONCURRENCY,
    MINOR_POOL_CAPACITY,
    NEW_RATIO_MAX,
    NEW_RATIO_MIN,
    MemoryConfig,
)
from ..simcluster.runtime import SimulatedRun, simulate
from ..workloads.base import WorkloadModel


@dataclass(frozen=True)
class Sample(SimulatedRun):
    """One observed probe of the configuration space: the simulated run
    and the penalized objective fed to the model."""

    objective: float

    def meets(self, target_sec: float) -> bool:
        """A clean run (not aborted, no failed container) at or under
        ``target_sec`` — the §6.2 "within the top 5 percentile" stop."""
        return not self.aborted and self.failed_containers == 0 and self.runtime_sec <= target_sec


@dataclass
class TuningResult:
    """Outcome of one tuning session."""

    best_config: MemoryConfig
    best_runtime_sec: float
    samples: list[Sample]
    fit_seconds: float = 0.0
    probe_seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.samples)

    @property
    def total_observation_sec(self) -> float:
        """Stress-testing cost: summed (simulated) runtimes of all probes."""
        return sum(s.runtime_sec for s in self.samples)


class ConfigSpace:
    """The §6.1 tuning space with a [0,1]^4 continuous encoding.

    :meth:`config` is the one place §6.1 knob values become a
    :class:`MemoryConfig`; the discrete grid (:meth:`grid`), the
    continuous encoding (:meth:`decode`) and the Table 7 bootstrap all go
    through it.

    Encoding order: (containers_per_node, task_concurrency,
    dominant_pool_fraction, new_ratio). Decoding clamps Task Concurrency
    to the per-container core budget, so any point of the unit cube maps
    to a *valid* configuration — what both BO's acquisition search and
    DDPG's continuous actions require.
    """

    FRAC_MIN, FRAC_MAX = 0.05, 0.9

    def __init__(self, cluster: ClusterSpec, dominant_pool: str):
        if dominant_pool not in ("cache", "shuffle"):
            raise ValueError(f"dominant_pool must be cache|shuffle, got {dominant_pool}")
        self.cluster = cluster
        self.dominant_pool = dominant_pool
        self.dim = 4
        #: The §6.1 box: each encoded coordinate is (knob − lo) / (hi − lo).
        self.lo = np.array([1, 1, self.FRAC_MIN, NEW_RATIO_MIN])
        self.hi = np.array([cluster.max_containers_per_node, cluster.cores_per_node, self.FRAC_MAX, NEW_RATIO_MAX])

    def config(self, n: int, p: int, frac: float, nr: int) -> MemoryConfig:
        """The configuration for §6.1 knob values.

        Task Concurrency is capped at cores/containers. ``frac`` sizes
        the dominant pool; the minor one is pinned at
        :data:`MINOR_POOL_CAPACITY` for cache-heavy apps, and
        shuffle-only apps get no cache at all.
        """
        p = min(p, self.cluster.max_task_concurrency(n))
        if self.dominant_pool == "cache":
            cache, shuffle = frac, MINOR_POOL_CAPACITY
        else:
            cache, shuffle = 0.0, frac
        return MemoryConfig(
            containers_per_node=n,
            task_concurrency=p,
            cache_capacity=cache,
            shuffle_capacity=shuffle,
            new_ratio=nr,
        )

    def grid(self) -> list[MemoryConfig]:
        """The Exhaustive Search grid (§6.1: 4 values per knob, only the
        dominant pool varied), skipping Task Concurrency values above
        the core cap — 176 configurations on Cluster A."""
        return [
            self.config(n, p, frac, nr)
            for n in range(1, self.cluster.max_containers_per_node + 1)
            for p in GRID_TASK_CONCURRENCY
            if p <= self.cluster.max_task_concurrency(n)
            for frac in GRID_POOL_FRACTIONS
            for nr in GRID_NEW_RATIOS
        ]

    def decode(self, x: np.ndarray) -> list[MemoryConfig]:
        """Map each row of a (k, 4) array of unit-cube points to a valid
        MemoryConfig; points outside the cube are clamped to it."""
        x = np.clip(np.atleast_2d(np.asarray(x, dtype=float)), 0.0, 1.0)
        knobs = self.lo + x * (self.hi - self.lo)
        return [self.config(int(round(n)), int(round(p)), round(f, 2), int(round(nr)))
                for n, p, f, nr in knobs.tolist()]

    def encode(self, cfgs: list[MemoryConfig]) -> np.ndarray:
        """The (k, 4) unit-cube points of ``cfgs``; inverse of
        :meth:`decode` on every configuration it returns."""
        pool = f"{self.dominant_pool}_capacity"
        knobs = np.array([(c.containers_per_node, c.task_concurrency, getattr(c, pool), c.new_ratio) for c in cfgs])
        return ((knobs - self.lo) / (self.hi - self.lo)).clip(0.0, 1.0)


@dataclass
class Objective:
    """Runs configurations through the cluster simulator and scores them
    by the §6.1 abort rule: an aborted run's objective is twice the worst
    runtime observed so far."""

    model: WorkloadModel
    cluster: ClusterSpec
    seed: int = 0
    history: list[Sample] = field(default_factory=list)

    def __call__(self, cfg: MemoryConfig) -> Sample:
        run = simulate(self.model, cfg, self.cluster, seed=self.seed)
        obj = run.runtime_sec
        if run.aborted:
            # §6.1: "the objective value for the sample is set to twice
            # the worst runtime obtained on the samples explored so far"
            # — worst *runtime*, not worst penalized objective, so
            # repeated aborts do not compound geometrically.
            worst = max((s.runtime_sec for s in self.history), default=run.runtime_sec)
            obj = 2.0 * max(worst, run.runtime_sec)
        sample = Sample(**vars(run), objective=obj)
        self.history.append(sample)
        return sample

    def best(self) -> Sample:
        """Best non-aborted sample so far (falls back to best objective)."""
        clean = [s for s in self.history if not s.aborted]
        pool = clean if clean else self.history
        return min(pool, key=lambda s: s.objective)

    def result(self, **timings: float) -> TuningResult:
        """The session so far as a :class:`TuningResult`; ``timings``
        are its ``fit_seconds``/``probe_seconds``."""
        best = self.best()
        return TuningResult(
            best_config=best.config,
            best_runtime_sec=best.runtime_sec,
            samples=list(self.history),
            **timings,
        )
