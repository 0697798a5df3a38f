"""Exhaustive grid search baseline (paper §6.1).

Evaluates the full discretized grid (4 values per knob, dominant pool
only — 176 configurations on Cluster A) and reports the best safe
configuration.
"""
from __future__ import annotations

from ..config import grid_configs
from .base import Objective, TuningResult


def exhaustive_search(objective: Objective, *, dominant_pool: str) -> TuningResult:
    """Sequentially evaluate the whole grid through ``objective``; the
    samples come back in grid order."""
    for cfg in grid_configs(objective.cluster, dominant_pool=dominant_pool):
        objective(cfg)
    best = objective.best()
    return TuningResult(
        policy="Exhaustive",
        best_config=best.config,
        best_runtime_sec=best.runtime_sec,
        samples=list(objective.history),
    )
