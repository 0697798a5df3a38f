"""Guiding white-box model Q (paper §5.2, Eq 8).

Given a candidate configuration ``x`` and the profiled statistics of a
*prior* run (any configuration), Q derives three metrics:

* ``q1`` — expected heap occupancy: flags both under-utilizing
  configurations (low) and unsafe ones (over 1);
* ``q2`` — long-term memory efficiency: demand over the available
  long-term storage min(Old, Cache Capacity); high values mean disk
  re-reads or Observation 5 GC thrash;
* ``q3`` — shuffle-pool efficiency vs ½·Eden (Observation 7): high
  values mean spill-triggered full-GC overheads.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..cluster import ClusterSpec
from ..config import NEW_RATIO_MAX
from ..profiler.stats import ProfileStats
from ..simcluster.jvm import HeapGeometry
from .relm import pool_demands


@lru_cache(maxsize=None)
def _heap_pools(cluster: ClusterSpec) -> np.ndarray:
    """Read-only (m_h, Old, Eden) of each (containers per node, NewRatio)
    pair, at [n - 1, NewRatio - 1], by the cluster's heap rule and Eq 3."""
    geoms = [[HeapGeometry(cluster.heap_mb(i), j) for j in range(1, NEW_RATIO_MAX + 1)]
             for i in range(1, cluster.max_containers_per_node + 1)]
    pools = np.array([[(g.heap_mb, g.old_mb, g.eden_mb) for g in row] for row in geoms])
    pools.flags.writeable = False
    return pools


def q_metrics(rows: np.ndarray, stats: ProfileStats, cluster: ClusterSpec) -> np.ndarray:
    """Eq 8: the (k, 3) array of (q1, q2, q3) for (k, 5) configuration
    rows (:func:`~repro.config.config_rows`) under ``stats``."""
    n, p, cache, shuffle, nr = np.asarray(rows, dtype=float).reshape(-1, 5).T
    m_h, old_mb, eden_mb = _heap_pools(cluster)[n.astype(int) - 1, nr.astype(int) - 1].T

    # Modeled requirements (Eq 1 / Eq 2 as in the Initializer).
    m_c_req, m_s_req = pool_demands(stats, m_h)

    # Configured capacities.
    m_c_x = cache * m_h
    m_s_x = shuffle * m_h / p  # per-task grant

    q1 = (
        stats.code_mb
        + np.minimum(m_c_x, m_c_req)
        + p * (stats.unmanaged_task_mb + np.minimum(m_s_x, m_s_req))
    ) / m_h

    long_term = stats.code_mb + m_c_req
    denom = np.where(m_c_x > 0, np.minimum(old_mb, m_c_x), old_mb)
    q2 = long_term / np.maximum(1.0, denom)

    q3 = p * np.minimum(m_s_x, m_s_req) / np.maximum(1.0, 0.5 * eden_mb)

    return np.stack([q1, q2, q3], axis=1)
