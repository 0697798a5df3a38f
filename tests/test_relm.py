"""RelM: Initializer (Eqs 1–4), Arbitrator (Algorithm 1), Selector."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import CLUSTER_A
from repro.config import NEW_RATIO_MAX, NEW_RATIO_MIN
from repro.core import arbitrate, initialize, relm_recommend
from repro.core.relm import _new_ratio_from_old
from repro.profiler.stats import ProfileStats
from repro.simcluster import simulate
from repro.simcluster.jvm import HeapGeometry
from repro.workloads import SUITE, workload_model
from repro.experiments.common import default_config, profiled_stats


def make_stats(**kw) -> ProfileStats:
    base = dict(
        containers_per_node=1, heap_mb=4404.0, cpu_avg_pct=35.0, disk_avg_pct=2.0,
        code_mb=115.0, cache_mb=2300.0, shuffle_task_mb=0.0, unmanaged_task_mb=770.0,
        task_concurrency=2, cache_hit_ratio=0.3, spill_fraction=0.0, from_full_gc=True,
    )
    base.update(kw)
    return ProfileStats(**base)


#: The paper's Table 6 example statistics (PageRank).
PAPER_STATS = make_stats()


class TestInitializerPaperExample:
    """§4.2 Example: n=1, heap 4404MB, δ=0.1 → m_c≈3964, m_s=0, p=5, NR=9."""

    def setup_method(self):
        self.init = initialize(PAPER_STATS, 1, CLUSTER_A)

    def test_cache(self):
        # Eq 1 with M_c/(H·M_h) > 1 clamps at (1-δ): 0.9 · 4404 = 3964.
        assert self.init.cache_mb == pytest.approx(0.9 * 4404)

    def test_shuffle(self):
        assert self.init.shuffle_task_mb == 0.0

    def test_concurrency(self):
        # Eq 4: min(p_cpu=5.14, p_disk=90, p_mem=5.15) → 5.
        assert self.init.task_concurrency == 5

    def test_new_ratio_capped(self):
        # Eq 3 yields 13, capped at the §6.1 maximum of 9.
        assert self.init.new_ratio == NEW_RATIO_MAX


class TestInitializerEquations:
    def test_eq1_scales_by_hit_ratio(self):
        st_half = make_stats(cache_mb=1000.0, cache_hit_ratio=0.5, unmanaged_task_mb=100.0)
        init = initialize(st_half, 1, CLUSTER_A)
        # demand = M_c / (H · M_h) = 1000/(0.5·4404) of the new heap.
        assert init.cache_mb == pytest.approx(4404 * 1000 / (0.5 * 4404))

    def test_eq2_scales_by_spillage(self):
        st_spill = make_stats(shuffle_task_mb=200.0, spill_fraction=0.5, cache_mb=0.0, task_concurrency=2)
        init = initialize(st_spill, 1, CLUSTER_A)
        assert init.shuffle_task_mb == pytest.approx(200.0 / (1 - 0.5 / 2))

    def test_eq4_memory_bound(self):
        st_mem = make_stats(cpu_avg_pct=1.0, disk_avg_pct=1.0, unmanaged_task_mb=1500.0, cache_mb=0.0)
        init = initialize(st_mem, 1, CLUSTER_A)
        assert init.task_concurrency == int(0.9 * 4404 / 1500)

    def test_eq4_respects_core_cap(self):
        st_cpu = make_stats(cpu_avg_pct=1.0, disk_avg_pct=0.1, unmanaged_task_mb=10.0, cache_mb=0.0)
        init = initialize(st_cpu, 1, CLUSTER_A)
        assert init.task_concurrency <= CLUSTER_A.cores_per_node

    def test_gc_pools_eq3(self):
        # Eq 3: NewRatio sized so Old holds code + cache.
        nr = _new_ratio_from_old(115 + 2000, 4404)
        geom = HeapGeometry(4404, nr)
        assert nr == math.ceil((115 + 2000) / (4404 - 115 - 2000))
        assert geom.old_mb == pytest.approx(4404 * nr / (nr + 1))
        assert geom.eden_mb == pytest.approx(4404 / (nr + 1) * 6 / 8)

    def test_new_ratio_inversion(self):
        for nr in range(1, 10):
            old = 4404 * nr / (nr + 1)
            assert _new_ratio_from_old(old, 4404) == nr


class TestArbitrator:
    def test_insufficient_memory_returns_none(self):
        # Line 1: one task must fit.
        st_big = make_stats(unmanaged_task_mb=5000.0)
        init = initialize(st_big, 1, CLUSTER_A)
        assert arbitrate(init, st_big) is None

    def test_safety_postcondition(self):
        # Lines 4–10 guarantee M_i + p·M_u + m_c <= m_o on exit.
        init = initialize(PAPER_STATS, 1, CLUSTER_A)
        arb = arbitrate(init, PAPER_STATS)
        assert arb is not None
        assert (
            PAPER_STATS.code_mb
            + arb.task_concurrency * PAPER_STATS.unmanaged_task_mb
            + arb.cache_mb
            <= arb.old_mb + 1e-6
        )

    def test_shuffle_bounded_by_half_eden(self):
        # Line 11 (Observation 7).
        st_sh = make_stats(cache_mb=0.0, shuffle_task_mb=2000.0, unmanaged_task_mb=200.0,
                           cache_hit_ratio=1.0)
        init = initialize(st_sh, 1, CLUSTER_A)
        arb = arbitrate(init, st_sh)
        assert arb is not None
        assert arb.shuffle_task_mb <= 0.5 * arb.eden_mb / arb.task_concurrency + 1e-9

    def test_utility_formula(self):
        init = initialize(PAPER_STATS, 1, CLUSTER_A)
        arb = arbitrate(init, PAPER_STATS)
        expected = (
            PAPER_STATS.code_mb + arb.cache_mb
            + arb.task_concurrency * (PAPER_STATS.unmanaged_task_mb + arb.shuffle_task_mb)
        ) / arb.heap_mb
        assert arb.utility == pytest.approx(expected)

    def test_pagerank_example_lands_near_paper(self):
        # §4.3 Example: the arbitrated fat-container config drops Task
        # Concurrency to ~2 and cache to ~1.5GB.
        init = initialize(PAPER_STATS, 1, CLUSTER_A)
        arb = arbitrate(init, PAPER_STATS)
        assert arb.task_concurrency <= 3
        assert arb.cache_mb < init.cache_mb

    @settings(max_examples=60, deadline=None)
    @given(
        cache=st.floats(min_value=0, max_value=8000),
        hit=st.floats(min_value=0.05, max_value=1.0),
        mu=st.floats(min_value=20, max_value=1500),
        shuffle=st.floats(min_value=0, max_value=1500),
        spill=st.floats(min_value=0.0, max_value=0.9),
        cpu=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_safety_holds_for_arbitrary_stats(self, cache, hit, mu, shuffle, spill, cpu):
        stats = make_stats(
            cache_mb=cache, cache_hit_ratio=hit, unmanaged_task_mb=mu,
            shuffle_task_mb=shuffle, spill_fraction=spill, cpu_avg_pct=cpu,
        )
        for n in range(1, CLUSTER_A.max_containers_per_node + 1):
            arb = arbitrate(initialize(stats, n, CLUSTER_A), stats)
            if arb is None:
                continue
            assert stats.code_mb + arb.task_concurrency * mu + arb.cache_mb <= arb.old_mb + 1e-6
            assert arb.task_concurrency >= 1
            assert arb.cache_mb >= 0
            assert NEW_RATIO_MIN <= arb.new_ratio <= NEW_RATIO_MAX


class TestToMemoryConfig:
    def test_roundtrip_fields(self):
        init = initialize(PAPER_STATS, 2, CLUSTER_A)
        arb = arbitrate(init, PAPER_STATS)
        cfg = arb.to_memory_config()
        assert cfg.containers_per_node == 2
        assert cfg.cache_capacity == pytest.approx(arb.cache_mb / arb.heap_mb, abs=0.01)
        assert cfg.cache_capacity + cfg.shuffle_capacity <= 1.0


class TestRecommendations:
    @pytest.mark.parametrize("name", SUITE)
    def test_recommendation_is_safe(self, name):
        # The headline claim: RelM recommendations never lose containers.
        stats = profiled_stats(name, "A", 0)
        cfg, _, _ = relm_recommend(stats, CLUSTER_A)
        r = simulate(workload_model(name), cfg, CLUSTER_A)
        assert not r.aborted
        assert r.failed_containers == 0

    @pytest.mark.parametrize("name", SUITE)
    def test_recommendation_beats_default(self, name):
        stats = profiled_stats(name, "A", 0)
        cfg, _, _ = relm_recommend(stats, CLUSTER_A)
        tuned = simulate(workload_model(name), cfg, CLUSTER_A)
        base = simulate(workload_model(name), default_config(name), CLUSTER_A)
        assert tuned.runtime_sec < base.runtime_sec

    def test_selector_returns_max_utility(self):
        stats = profiled_stats("K-means", "A", 0)
        _, best, candidates = relm_recommend(stats, CLUSTER_A)
        assert best.utility == max(c.utility for c in candidates)

    def test_pagerank_matches_paper_table8(self):
        # Paper Table 8 RelM row: (2, 1, 0.24, 0, 5).
        stats = profiled_stats("PageRank", "A", 0)
        cfg, _, _ = relm_recommend(stats, CLUSTER_A)
        assert cfg.containers_per_node == 2
        assert cfg.task_concurrency == 1
        assert cfg.cache_capacity == pytest.approx(0.24, abs=0.05)

    def test_impossible_workload_raises(self):
        stats = make_stats(unmanaged_task_mb=50000.0)
        with pytest.raises(ValueError):
            relm_recommend(stats, CLUSTER_A)
