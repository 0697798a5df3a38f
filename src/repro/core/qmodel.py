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

from ..cluster import ClusterSpec
from ..config import MemoryConfig
from ..profiler.stats import ProfileStats
from ..simcluster.jvm import HeapGeometry
from .relm import pool_demands


def q_metrics(cfg: MemoryConfig, stats: ProfileStats, cluster: ClusterSpec) -> tuple[float, float, float]:
    """Eq 8: (q1, q2, q3) for configuration ``cfg`` under ``stats``."""
    m_h = cluster.heap_mb(cfg.containers_per_node)
    p = cfg.task_concurrency
    geom = HeapGeometry(m_h, cfg.new_ratio)

    # Modeled requirements (Eq 1 / Eq 2 as in the Initializer).
    m_c_req, m_s_req = pool_demands(stats, m_h)

    # Configured capacities.
    m_c_x = cfg.cache_capacity * m_h
    m_s_x = cfg.shuffle_capacity * m_h / p  # per-task grant

    q1 = (
        stats.code_mb
        + min(m_c_x, m_c_req)
        + p * (stats.unmanaged_task_mb + min(m_s_x, m_s_req))
    ) / m_h

    long_term = stats.code_mb + m_c_req
    denom = min(geom.old_mb, m_c_x) if m_c_x > 0 else geom.old_mb
    q2 = long_term / max(1.0, denom)

    q3 = p * min(m_s_x, m_s_req) / max(1.0, 0.5 * geom.eden_mb)

    return float(q1), float(q2), float(q3)
