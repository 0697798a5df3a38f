"""Exhaustive grid search baseline (paper §6.1).

Evaluates the full discretized grid (4 values per knob, dominant pool
only — 176 configurations on Cluster A) and reports the best safe
configuration.
"""
from __future__ import annotations

from .base import ConfigSpace, Objective, TuningResult


def exhaustive_search(objective: Objective, *, dominant_pool: str) -> TuningResult:
    """Sequentially evaluate the whole grid through ``objective``; the
    samples come back in grid order."""
    for cfg in ConfigSpace(objective.cluster, dominant_pool).grid():
        objective(cfg)
    return objective.result()
