"""Guided Bayesian Optimization (paper §5.2).

GBO is BO whose surrogate sees, in addition to the raw knob encoding
``x``, the three white-box metrics ``q(x)`` of Eq 8 computed from a
profiled prior run. The q features separate expensive regions (unsafe
heap occupancy, Old-pool overflow, oversized shuffle grants) from
promising ones before a single adaptive sample lands there, which is
what makes the surrogate fit usable after far fewer probes (Figure 25).
"""
from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec
from ..core.qmodel import q_metrics
from ..profiler.stats import ProfileStats
from .base import ConfigSpace, Objective, TuningResult
from .bo import bayesian_optimize

#: q values are clipped before standardizing into the kernel space — a
#: wildly unsafe configuration should rank "bad", not distort distances.
Q_CLIP = 4.0


def gbo_features(space: ConfigSpace, stats: ProfileStats, cluster: ClusterSpec):
    """Feature function: for (k, 5) configuration rows, a row
    x ⊕ q(x)/Q_CLIP each, all roughly in [0, 1]."""

    def feats(rows: np.ndarray) -> np.ndarray:
        q = q_metrics(rows, stats, cluster)
        return np.hstack([space.encode(rows), np.clip(q, 0.0, Q_CLIP) / Q_CLIP])

    return feats


def guided_bayesian_optimize(
    objective: Objective,
    space: ConfigSpace,
    stats: ProfileStats,
    **kw,
) -> TuningResult:
    """Run GBO: the BO loop over the augmented feature space; ``kw`` are
    :func:`~repro.tuners.bo.bayesian_optimize`'s keywords."""
    return bayesian_optimize(
        objective,
        space,
        feature_fn=gbo_features(space, stats, objective.cluster),
        **kw,
    )
