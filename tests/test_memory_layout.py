"""Memory-pool layout resolution (repro.simcluster.memory)."""
import pytest

from repro.cluster import CLUSTER_A
from repro.config import MemoryConfig
from repro.simcluster.memory import layout
from repro.tuners.base import ConfigSpace
from repro.workloads import SUITE, dominant_pool, workload_model


@pytest.fixture(scope="module", params=SUITE)
def model(request):
    return workload_model(request.param)


SAMPLE_CONFIGS = [
    MemoryConfig(1, 2, 0.4, 0.2, 2),
    MemoryConfig(2, 1, 0.4, 0.1, 3),
    MemoryConfig(4, 2, 0.2, 0.1, 1),
    MemoryConfig(1, 8, 0.6, 0.1, 5),
    MemoryConfig(3, 2, 0.8, 0.1, 7),
]


class TestLayoutInvariants:
    @pytest.mark.parametrize("cfg", SAMPLE_CONFIGS)
    def test_cache_within_capacity(self, model, cfg):
        lay = layout(model, cfg, CLUSTER_A)
        assert lay.cache_used_mb <= lay.cache_capacity_mb + 1e-9

    @pytest.mark.parametrize("cfg", SAMPLE_CONFIGS)
    def test_hit_ratio_bounds(self, model, cfg):
        lay = layout(model, cfg, CLUSTER_A)
        assert 0.0 <= lay.cache_hit_ratio <= 1.0

    @pytest.mark.parametrize("cfg", SAMPLE_CONFIGS)
    def test_spill_fraction_bounds(self, model, cfg):
        lay = layout(model, cfg, CLUSTER_A)
        assert 0.0 <= lay.spill_fraction <= 1.0

    @pytest.mark.parametrize("cfg", SAMPLE_CONFIGS)
    def test_shuffle_within_grant(self, model, cfg):
        lay = layout(model, cfg, CLUSTER_A)
        assert lay.shuffle_used_task_mb <= lay.shuffle_grant_task_mb + 1e-9

    @pytest.mark.parametrize("cfg", SAMPLE_CONFIGS)
    def test_live_demand_composition(self, model, cfg):
        from repro.simcluster.memory import MERGE_PEAK_FACTOR

        lay = layout(model, cfg, CLUSTER_A)
        shuffle_peak = min(
            lay.shuffle_grant_task_mb, MERGE_PEAK_FACTOR * model.shuffle_task_mb
        )
        expected = (
            model.code_mb
            + lay.cache_used_mb
            + cfg.task_concurrency * (model.unmanaged_task_mb + shuffle_peak)
        )
        assert lay.live_demand_mb == pytest.approx(expected)

    @pytest.mark.parametrize("cfg", SAMPLE_CONFIGS)
    def test_live_demand_at_least_steady_state(self, model, cfg):
        lay = layout(model, cfg, CLUSTER_A)
        steady = (
            model.code_mb
            + lay.cache_used_mb
            + cfg.task_concurrency * (model.unmanaged_task_mb + lay.shuffle_used_task_mb)
        )
        assert lay.live_demand_mb >= steady - 1e-9

    @pytest.mark.parametrize("cfg", SAMPLE_CONFIGS)
    def test_containers_total(self, model, cfg):
        lay = layout(model, cfg, CLUSTER_A)
        assert lay.containers_total == CLUSTER_A.nodes * cfg.containers_per_node


class TestCacheSemantics:
    def test_no_cache_app_has_perfect_hit_ratio(self):
        wc = workload_model("WordCount")
        lay = layout(wc, MemoryConfig(1, 2, 0.0, 0.2, 2), CLUSTER_A)
        assert lay.cache_hit_ratio == 1.0
        assert lay.cache_used_mb == 0.0

    def test_hit_ratio_scales_with_capacity(self):
        km = workload_model("K-means")
        lows = layout(km, MemoryConfig(1, 2, 0.2, 0.1, 2), CLUSTER_A)
        highs = layout(km, MemoryConfig(1, 2, 0.6, 0.1, 2), CLUSTER_A)
        assert highs.cache_hit_ratio > lows.cache_hit_ratio

    def test_svm_fits_at_half_heap(self):
        # Figure 7d: SVM reaches hit ratio 1.0 at Cache Capacity 0.5.
        svm = workload_model("SVM")
        lay = layout(svm, MemoryConfig(1, 2, 0.5, 0.1, 2), CLUSTER_A)
        assert lay.cache_hit_ratio == pytest.approx(1.0)

    def test_kmeans_never_fully_fits_on_default_containers(self):
        # Figure 7d: K-means hits the memory bottleneck before caching
        # all partitions (safe capacities stay below full fit).
        km = workload_model("K-means")
        lay = layout(km, MemoryConfig(1, 2, 0.6, 0.1, 2), CLUSTER_A)
        assert lay.cache_hit_ratio < 1.0


class TestShuffleSemantics:
    def test_spill_decreases_with_capacity(self):
        sbk = workload_model("SortByKey")
        low = layout(sbk, MemoryConfig(1, 2, 0.0, 0.1, 2), CLUSTER_A)
        high = layout(sbk, MemoryConfig(1, 2, 0.0, 0.5, 2), CLUSTER_A)
        assert high.spill_fraction < low.spill_fraction

    def test_spill_splits_across_tasks(self):
        sbk = workload_model("SortByKey")
        p1 = layout(sbk, MemoryConfig(1, 1, 0.0, 0.2, 2), CLUSTER_A)
        p4 = layout(sbk, MemoryConfig(1, 4, 0.0, 0.2, 2), CLUSTER_A)
        assert p4.shuffle_grant_task_mb == pytest.approx(p1.shuffle_grant_task_mb / 4)

    def test_pagerank_shuffle_is_zero(self):
        # Table 6: M_s = 0 for PageRank.
        pr = workload_model("PageRank")
        lay = layout(pr, MemoryConfig(1, 2, 0.6, 0.2, 2), CLUSTER_A)
        assert lay.shuffle_used_task_mb == 0.0
        assert lay.spill_fraction == 0.0


class TestRssModel:
    def test_higher_new_ratio_lowers_rss(self):
        # Observation 6 / Figure 11: frequent young GCs (high NR) arrest
        # physical-memory growth.
        pr = workload_model("PageRank")
        nr2 = layout(pr, MemoryConfig(1, 4, 0.6, 0.0, 2), CLUSTER_A)
        nr8 = layout(pr, MemoryConfig(1, 4, 0.6, 0.0, 8), CLUSTER_A)
        assert nr8.rss_overrun_mb <= nr2.rss_overrun_mb

    def test_rss_overrun_nonnegative(self, model):
        lay = layout(model, MemoryConfig(1, 2, 0.4, 0.2, 2), CLUSTER_A)
        assert lay.rss_overrun_mb >= 0.0


class TestGridSweepSanity:
    @pytest.mark.parametrize("name", SUITE)
    def test_all_grid_layouts_resolve(self, name):
        m = workload_model(name)
        for cfg in ConfigSpace(CLUSTER_A, dominant_pool(name)).grid():
            lay = layout(m, cfg, CLUSTER_A)
            assert lay.heap_pressure > 0
            assert lay.old_pressure > 0
