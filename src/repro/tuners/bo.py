"""Bayesian Optimization tuner (paper §5.1) and its guided variant hook.

The SMBO loop: probe the caller's LHS bootstrap (Table 7), then repeatedly
fit the surrogate on penalized objectives, pick the candidate with the
highest Expected Improvement (random candidate sweep + local
neighborhood refinement standing in for the paper's
random-sampling + quasi-Newton search), probe it, and stop by the
CherryPick rule (§5.1/§6.2): expected improvement below 10% of the
incumbent **and** at least 6 adaptive samples observed.

``feature_fn`` lets GBO inject the white-box Q metrics as extra
surrogate inputs without duplicating the loop; ``surrogate_fit`` swaps
the GP for the Random-Forest model of §6.5.

The acquisition search keeps its candidates as one (k, 5) array of
configuration rows (:meth:`~repro.tuners.base.ConfigSpace.decode`);
only the candidate picked for probing becomes a :class:`MemoryConfig`.
"""
from __future__ import annotations

import time
from typing import Callable, Protocol

import numpy as np

from ..config import MemoryConfig, config_rows
from .base import ConfigSpace, Objective, TuningResult
from .gp import GaussianProcess, expected_improvement


class Surrogate(Protocol):  # pragma: no cover - typing only
    def predict(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


#: CherryPick stopping rule parameters (§6.2).
EI_STOP_FRACTION = 0.10
MIN_ADAPTIVE_SAMPLES = 6
DEFAULT_MAX_ITERS = 30
#: Plateau stop: no >1% improvement of the incumbent over this many
#: adaptive probes. Needed because the §6.1 abort penalty (2× worst)
#: inflates the GP's output scale, which keeps raw EI above the
#: CherryPick threshold even after the search has converged.
PLATEAU_PROBES = 6
PLATEAU_REL_IMPROVEMENT = 0.01
#: Acquisition search effort.
N_CANDIDATES = 600
N_NEIGHBORS = 40
NEIGHBOR_STEP = 0.08


def bayesian_optimize(
    objective: Objective,
    space: ConfigSpace,
    *,
    seed: int = 0,
    feature_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    bootstrap: list[MemoryConfig],
    surrogate_fit: Callable[[np.ndarray, np.ndarray], Surrogate] | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    target_runtime_sec: float | None = None,
) -> TuningResult:
    """Run the SMBO loop; returns the tuning result with timing breakdown.

    With ``target_runtime_sec`` set, the EI/plateau stopping rules are
    replaced by "stop at the first clean run at or under the target" —
    the §6.2 protocol of training each policy until it finds a
    configuration within the top 5 percentile of Exhaustive Search.
    ``feature_fn`` maps (k, 5) configuration rows to the surrogate's
    (k, d) inputs; the default is the unit-cube encoding.
    """
    rng = np.random.default_rng(seed)
    feats = feature_fn or space.encode
    fit = surrogate_fit or (lambda x, y: GaussianProcess.fit(x, y))
    # The surrogate models log-runtime: the §6.1 abort penalty (2× worst)
    # would otherwise dominate the GP's output scale and flatten the
    # valley around good configurations. On the log scale the CherryPick
    # stop "EI below 10%" reads as "expected runtime reduction < 10%",
    # i.e. an EI threshold of log(1.1).
    ei_stop = float(np.log1p(EI_STOP_FRACTION))

    for cfg in bootstrap:
        objective(cfg)

    grid = space.grid_rows()
    fit_times: list[float] = []
    probe_times: list[float] = []
    adaptive = 0
    best_trace: list[float] = []
    while adaptive < max_iters:
        observed = config_rows([s.config for s in objective.history])
        x = feats(observed)
        y = np.log(np.maximum(1e-3, [s.objective for s in objective.history]))

        t0 = time.perf_counter()
        model = fit(x, y)
        fit_times.append(time.perf_counter() - t0)

        # Random sweep + the discrete §6.1 grid + local refinement
        # around the incumbent (the random + gradient-search combo of
        # §5.1, adapted to a mixed discrete/continuous space).
        inc = space.encode(config_rows([objective.best().config]))
        drawn = space.decode(np.vstack([
            rng.random((N_CANDIDATES, space.dim)),
            inc + rng.normal(0.0, NEIGHBOR_STEP, (N_NEIGHBORS, space.dim)),
        ]))
        cands = np.vstack([drawn[:N_CANDIDATES], grid, drawn[N_CANDIDATES:]])
        # Drop repeats, keeping each row's first occurrence in order.
        _, first = np.unique(space.keys(cands), return_index=True)
        cands = cands[np.sort(first)]
        # The probe (§6.3 "model probing") is the surrogate's inputs and
        # EI over the candidates; drawing them is the same work for BO and GBO.
        t0 = time.perf_counter()
        xq = feats(cands)
        tau = float(min(y))
        ei = expected_improvement(model, xq, tau)  # works for any Surrogate
        order = np.argsort(-ei)
        probe_times.append(time.perf_counter() - t0)

        # Probe the best not-yet-observed candidate. Observed rows are
        # matched exactly, not by key: a bootstrap config may lie off the
        # 0.01 lattice the keys assume.
        seen = set(map(tuple, observed.tolist()))
        fresh = (i for i in order if tuple(cands[i].tolist()) not in seen)
        i = next(fresh, None)
        if i is None:
            break
        pick_ei = float(ei[i])
        (pick,) = space.configs(cands[i])
        picked = objective(pick)
        adaptive += 1

        if target_runtime_sec is not None:
            if picked.meets(target_runtime_sec):
                break
            continue

        best_trace.append(objective.best().objective)
        if adaptive >= MIN_ADAPTIVE_SAMPLES:
            if pick_ei < ei_stop:
                break
            if (
                len(best_trace) > PLATEAU_PROBES
                and best_trace[-PLATEAU_PROBES - 1] - best_trace[-1]
                < PLATEAU_REL_IMPROVEMENT * best_trace[-1]
            ):
                break

    return objective.result(fit_times=fit_times, probe_times=probe_times)
