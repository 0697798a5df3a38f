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
from itertools import product

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
    check_rows,
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
    """Outcome of one tuning session, with the wall-clock seconds of each
    iteration's model fit and model probe (§6.3)."""

    best_config: MemoryConfig
    best_runtime_sec: float
    samples: list[Sample]
    fit_times: list[float] = field(default_factory=list)
    probe_times: list[float] = field(default_factory=list)

    @property
    def fit_seconds(self) -> float:
        return sum(self.fit_times)

    @property
    def probe_seconds(self) -> float:
        return sum(self.probe_times)

    @property
    def iterations(self) -> int:
        return len(self.samples)

    @property
    def total_observation_sec(self) -> float:
        """Stress-testing cost: summed (simulated) runtimes of all probes."""
        return sum(s.runtime_sec for s in self.samples)


class ConfigSpace:
    """The §6.1 tuning space with a [0,1]^4 continuous encoding.

    Batches of configurations are (k, 5) float rows in
    :class:`MemoryConfig` field order (n, p, cache, shuffle, NewRatio),
    and :meth:`configs` is the one place rows become configurations.
    The discrete grid (:meth:`grid_rows`), the continuous encoding
    (:meth:`decode`) and single knob values (:meth:`config`) all build
    their rows with the same Task Concurrency cap and pool placement.

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
        #: The row columns the encoding reads: n, p, the dominant pool, NewRatio.
        self._knob_cols = [0, 1, 2 if dominant_pool == "cache" else 3, 4]
        #: Task Concurrency cap per Containers per Node (index n; 0 unused).
        self._p_cap = np.array([0] + [cluster.max_task_concurrency(n)
                                      for n in range(1, cluster.max_containers_per_node + 1)])

    def _rows(self, n, p, frac, nr) -> np.ndarray:
        """(k, 5) rows for knob columns. Task Concurrency is capped at
        cores/containers. ``frac`` sizes the dominant pool; the minor one
        is pinned at :data:`MINOR_POOL_CAPACITY` for cache-heavy apps,
        and shuffle-only apps get no cache at all."""
        n, p, frac, nr = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (n, p, frac, nr)))
        if not ((1 <= n) & (n < len(self._p_cap))).all():
            raise ValueError("containers_per_node out of range")
        p = np.minimum(p, self._p_cap[n.astype(int)])
        if self.dominant_pool == "cache":
            cache, shuffle = frac, np.full_like(frac, MINOR_POOL_CAPACITY)
        else:
            cache, shuffle = np.zeros_like(frac), frac
        return np.stack([n, p, cache, shuffle, nr], axis=-1).reshape(-1, 5)

    def configs(self, rows: np.ndarray) -> list[MemoryConfig]:
        """The :class:`MemoryConfig` of each row."""
        return [MemoryConfig(int(n), int(p), cache, shuffle, int(nr))
                for n, p, cache, shuffle, nr in np.asarray(rows, dtype=float).reshape(-1, 5).tolist()]

    def config(self, n: int, p: int, frac: float, nr: int) -> MemoryConfig:
        """The configuration for §6.1 knob values."""
        return self.configs(self._rows(n, p, frac, nr))[0]

    def grid_rows(self) -> np.ndarray:
        """The Exhaustive Search grid (§6.1: 4 values per knob, only the
        dominant pool varied), skipping Task Concurrency values above
        the core cap — 176 rows on Cluster A."""
        n, p, frac, nr = np.array(list(product(
            range(1, self.cluster.max_containers_per_node + 1),
            GRID_TASK_CONCURRENCY, GRID_POOL_FRACTIONS, GRID_NEW_RATIOS,
        )), dtype=float).T
        keep = p <= self._p_cap[n.astype(int)]
        return self._rows(n[keep], p[keep], frac[keep], nr[keep])

    def grid(self) -> list[MemoryConfig]:
        """The configurations of :meth:`grid_rows`."""
        return self.configs(self.grid_rows())

    def decode(self, x: np.ndarray) -> np.ndarray:
        """The (k, 5) rows of a (k, 4) array of unit-cube points; points
        outside the cube are clamped to it. Knobs round as Python's
        ``round`` does: half to even, the pool fraction to 0.01."""
        x = np.clip(np.atleast_2d(np.asarray(x, dtype=float)), 0.0, 1.0)
        n, p, frac, nr = (self.lo + x * (self.hi - self.lo)).T
        rows = self._rows(np.rint(n), np.rint(p), _round_cents(frac), np.rint(nr))
        check_rows(rows)
        return rows

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """The (k, 4) unit-cube points of (k, 5) rows; inverse of
        :meth:`decode` on every row it returns."""
        knobs = np.asarray(rows, dtype=float).reshape(-1, 5)[:, self._knob_cols]
        return ((knobs - self.lo) / (self.hi - self.lo)).clip(0.0, 1.0)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """One int64 per row, equal exactly when the rows are, for rows
        of this space (:meth:`decode`, :meth:`grid_rows`): pool fractions
        on the 0.01 lattice, Task Concurrency at most the core count."""
        n, p, cache, shuffle, nr = np.asarray(rows, dtype=float).reshape(-1, 5).T
        key = (((n * (self.cluster.cores_per_node + 1) + p) * 101 + np.rint(100 * cache)) * 101
               + np.rint(100 * shuffle)) * (NEW_RATIO_MAX + 1) + nr
        return key.astype(np.int64)


def _round_cents(v: np.ndarray) -> np.ndarray:
    """``round(x, 2)`` of each value, exactly. Scaling by 100 first (as
    ``np.round`` does) can push a value within an ulp of a half cent to
    the wrong side, so those go through Python's correctly rounded
    ``round``; everywhere else ``rint(100 x) / 100`` is the same double."""
    scaled = 100 * v
    out = np.rint(scaled) / 100
    near = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    if near.any():
        out[near] = [round(x, 2) for x in v[near].tolist()]
    return out


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

    def result(self, **timings: list[float]) -> TuningResult:
        """The session so far as a :class:`TuningResult`; ``timings``
        are its ``fit_times``/``probe_times``."""
        best = self.best()
        return TuningResult(
            best_config=best.config,
            best_runtime_sec=best.runtime_sec,
            samples=list(self.history),
            **timings,
        )
