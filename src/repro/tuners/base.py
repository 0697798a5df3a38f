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
    MemoryConfig,
)
from ..simcluster.runtime import SimulatedRun, simulate
from ..workloads.base import WorkloadModel


@dataclass(frozen=True)
class Sample:
    """One observed probe of the configuration space."""

    config: MemoryConfig
    runtime_sec: float  # true runtime of the run
    objective: float  # penalized objective fed to the model
    aborted: bool
    failed_containers: int
    run: SimulatedRun

    def meets(self, target_sec: float) -> bool:
        """A clean run (not aborted, no failed container) at or under
        ``target_sec`` — the §6.2 "within the top 5 percentile" stop."""
        return not self.aborted and self.failed_containers == 0 and self.runtime_sec <= target_sec


@dataclass
class TuningResult:
    """Outcome of one tuning session."""

    policy: str
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

    def decode(self, x: np.ndarray) -> MemoryConfig:
        """Map a unit-cube point to a valid MemoryConfig."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        n = int(round(1 + x[0] * (self.cluster.max_containers_per_node - 1)))
        p = int(round(1 + x[1] * (self.cluster.cores_per_node - 1)))
        frac = float(self.FRAC_MIN + x[2] * (self.FRAC_MAX - self.FRAC_MIN))
        nr = int(round(1 + x[3] * (NEW_RATIO_MAX - 1)))
        return self.config(n, p, round(frac, 2), nr)

    def encode(self, cfg: MemoryConfig) -> np.ndarray:
        """Inverse of :meth:`decode` (up to rounding)."""
        frac = cfg.cache_capacity if self.dominant_pool == "cache" else cfg.shuffle_capacity
        return np.array(
            [
                (cfg.containers_per_node - 1) / (self.cluster.max_containers_per_node - 1),
                (cfg.task_concurrency - 1) / (self.cluster.cores_per_node - 1),
                (frac - self.FRAC_MIN) / (self.FRAC_MAX - self.FRAC_MIN),
                (cfg.new_ratio - 1) / (NEW_RATIO_MAX - 1),
            ],
            dtype=float,
        ).clip(0.0, 1.0)

    def sample(self, rng: np.random.Generator, k: int) -> list[MemoryConfig]:
        """Uniform random configurations."""
        return [self.decode(rng.random(self.dim)) for _ in range(k)]


@dataclass
class Objective:
    """Runs configurations through the cluster simulator and scores them.

    ``penalized=True`` applies the §6.1 abort rule: an aborted run's
    objective is twice the worst (penalized) objective observed so far.
    """

    model: WorkloadModel
    cluster: ClusterSpec
    seed: int = 0
    penalized: bool = True
    history: list[Sample] = field(default_factory=list)

    def __call__(self, cfg: MemoryConfig) -> Sample:
        run = simulate(self.model, cfg, self.cluster, seed=self.seed)
        obj = run.runtime_sec
        if self.penalized and run.aborted:
            # §6.1: "the objective value for the sample is set to twice
            # the worst runtime obtained on the samples explored so far"
            # — worst *runtime*, not worst penalized objective, so
            # repeated aborts do not compound geometrically.
            worst = max((s.runtime_sec for s in self.history), default=run.runtime_sec)
            obj = 2.0 * max(worst, run.runtime_sec)
        sample = Sample(
            config=cfg,
            runtime_sec=run.runtime_sec,
            objective=obj,
            aborted=run.aborted,
            failed_containers=run.failed_containers,
            run=run,
        )
        self.history.append(sample)
        return sample

    def best(self) -> Sample:
        """Best non-aborted sample so far (falls back to best objective)."""
        clean = [s for s in self.history if not s.aborted]
        pool = clean if clean else self.history
        return min(pool, key=lambda s: s.objective)

    def result(self, policy: str, **timings: float) -> TuningResult:
        """The session so far as a :class:`TuningResult` for ``policy``;
        ``timings`` are its ``fit_seconds``/``probe_seconds``."""
        best = self.best()
        return TuningResult(
            policy=policy,
            best_config=best.config,
            best_runtime_sec=best.runtime_sec,
            samples=list(self.history),
            **timings,
        )
