"""White-box model Q (Eq 8)."""
import numpy as np
import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import MemoryConfig, config_rows
from repro.core import q_metrics
from repro.core.qmodel import _heap_pools
from repro.core.relm import pool_demands
from repro.experiments.common import profiled_stats
from repro.simcluster.jvm import HeapGeometry
from repro.tuners.base import ConfigSpace
from repro.workloads import SUITE


def q_metrics_reference(cfg, stats, cluster):
    """Eq 8 for one configuration, one scalar at a time: the reference
    the batched :func:`q_metrics` must match bit for bit."""
    m_h = cluster.heap_mb(cfg.containers_per_node)
    p = cfg.task_concurrency
    geom = HeapGeometry(m_h, cfg.new_ratio)

    m_c_req, m_s_req = pool_demands(stats, m_h)

    m_c_x = cfg.cache_capacity * m_h
    m_s_x = cfg.shuffle_capacity * m_h / p

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


@pytest.fixture(scope="module")
def pr_stats():
    return profiled_stats("PageRank", "A", 0)


@pytest.fixture(scope="module")
def sbk_stats():
    return profiled_stats("SortByKey", "A", 0)


class TestQ1HeapOccupancy:
    def test_unsafe_config_scores_over_one(self, pr_stats):
        # The default PageRank setup aborts (Figure 5) — q1 must flag it.
        q1, _, _ = q_metrics(config_rows([MemoryConfig(1, 2, 0.6, 0.0, 2)]), pr_stats, CLUSTER_A)[0]
        assert q1 > 0.95

    def test_underutilized_config_scores_low(self, pr_stats):
        q1, _, _ = q_metrics(config_rows([MemoryConfig(1, 1, 0.1, 0.0, 2)]), pr_stats, CLUSTER_A)[0]
        assert q1 < 0.7

    def test_q1_grows_with_concurrency(self, pr_stats):
        q1a = q_metrics(config_rows([MemoryConfig(1, 1, 0.4, 0.0, 2)]), pr_stats, CLUSTER_A)[0, 0]
        q1b = q_metrics(config_rows([MemoryConfig(1, 4, 0.4, 0.0, 2)]), pr_stats, CLUSTER_A)[0, 0]
        assert q1b > q1a


class TestQ2LongTermEfficiency:
    def test_small_old_raises_q2(self, pr_stats):
        # Observation 5: Old below the long-term demand is flagged.
        q2_small = q_metrics(config_rows([MemoryConfig(1, 1, 0.6, 0.0, 1)]), pr_stats, CLUSTER_A)[0, 1]
        q2_big = q_metrics(config_rows([MemoryConfig(1, 1, 0.6, 0.0, 7)]), pr_stats, CLUSTER_A)[0, 1]
        assert q2_small >= q2_big

    def test_small_cache_capacity_raises_q2(self, pr_stats):
        q2_tiny = q_metrics(config_rows([MemoryConfig(1, 1, 0.05, 0.0, 3)]), pr_stats, CLUSTER_A)[0, 1]
        q2_ok = q_metrics(config_rows([MemoryConfig(1, 1, 0.5, 0.0, 3)]), pr_stats, CLUSTER_A)[0, 1]
        assert q2_tiny > q2_ok


class TestQ3ShuffleEfficiency:
    def test_oversized_grant_flagged(self, sbk_stats):
        # Observation 7: a shuffle grant beyond ½·Eden scores high.
        q3_big = q_metrics(config_rows([MemoryConfig(1, 2, 0.0, 0.7, 2)]), sbk_stats, CLUSTER_A)[0, 2]
        q3_small = q_metrics(config_rows([MemoryConfig(1, 2, 0.0, 0.1, 2)]), sbk_stats, CLUSTER_A)[0, 2]
        assert q3_big > 1.0
        assert q3_small < q3_big

    def test_no_shuffle_app_scores_zero(self, pr_stats):
        q3 = q_metrics(config_rows([MemoryConfig(1, 2, 0.4, 0.2, 2)]), pr_stats, CLUSTER_A)[0, 2]
        assert q3 == 0.0

    def test_metrics_are_finite(self, pr_stats, sbk_stats):
        for stats in (pr_stats, sbk_stats):
            for cfg in (MemoryConfig(4, 2, 0.2, 0.1, 1), MemoryConfig(1, 8, 0.8, 0.1, 9)):
                qs = q_metrics(config_rows([cfg]), stats, CLUSTER_A)[0]
                assert all(q >= 0 and q == q for q in qs)


class TestBatch:
    @pytest.mark.parametrize("cluster", [CLUSTER_A, CLUSTER_B], ids=["A", "B"])
    def test_matches_scalar_reference(self, cluster):
        # The §6.1 grid plus 1,000 decoded random points per cluster,
        # under the profiled stats of all six workloads: every q equal
        # to the scalar reference, not approximately.
        rng = np.random.default_rng(0)
        spaces = [ConfigSpace(cluster, pool) for pool in ("cache", "shuffle")]
        rows = np.vstack([r for s in spaces for r in (s.grid_rows(), s.decode(rng.random((500, s.dim))))])
        cfgs = spaces[0].configs(rows)
        for name in (*SUITE, "TPC-H"):
            stats = profiled_stats(name, cluster.name, 0)
            q = q_metrics(rows, stats, cluster)
            assert q.shape == (len(cfgs), 3)
            assert q.tolist() == [list(q_metrics_reference(c, stats, cluster)) for c in cfgs]

    def test_heap_table_built_once_and_read_only(self):
        pools = _heap_pools(CLUSTER_A)
        assert pools is _heap_pools(CLUSTER_A) and not pools.flags.writeable
