"""Statistics Generator (§4.1, Table 6)."""
from dataclasses import replace

import pytest

from repro.cluster import CLUSTER_A
from repro.config import MemoryConfig, max_resource_allocation
from repro.profiler import generate_stats, profile_with_full_gc
from repro.profiler.stats import MAX_PROFILE_ATTEMPTS
from repro.simcluster.profile_gen import profile_app
from repro.workloads import SUITE, workload_model


def pagerank_stats(seed=0):
    p = profile_app(workload_model("PageRank"), MemoryConfig(1, 2, 0.6, 0.0, 2), CLUSTER_A, seed=seed)
    return generate_stats(p)


class TestTable6Reproduction:
    """Our statistics vs the paper's Table 6 example column."""

    def test_container_config(self):
        st = pagerank_stats()
        assert st.containers_per_node == 1
        assert st.heap_mb == 4404
        assert st.task_concurrency == 2

    def test_cpu_disk(self):
        st = pagerank_stats()
        assert st.cpu_avg_pct == pytest.approx(35, abs=8)  # paper: 35%
        assert st.disk_avg_pct == pytest.approx(2, abs=2)  # paper: 2%

    def test_code_overhead(self):
        assert pagerank_stats().code_mb == pytest.approx(115, rel=0.15)  # paper: 115MB

    def test_unmanaged(self):
        assert pagerank_stats().unmanaged_task_mb == pytest.approx(770, rel=0.15)  # paper: 770MB

    def test_cache_and_hit_ratio(self):
        st = pagerank_stats()
        assert st.cache_mb == pytest.approx(2300, rel=0.35)  # paper: 2300MB
        assert st.cache_hit_ratio == pytest.approx(0.30, abs=0.1)  # paper: 0.3

    def test_shuffle_zero(self):
        st = pagerank_stats()
        assert st.shuffle_task_mb == 0.0  # paper: 0MB
        assert st.spill_fraction == 0.0  # paper: 0

    def test_from_full_gc(self):
        assert pagerank_stats().from_full_gc


class TestMuRecovery:
    @pytest.mark.parametrize("name,cfg", [
        ("PageRank", MemoryConfig(1, 2, 0.6, 0.0, 2)),
        ("K-means", MemoryConfig(1, 2, 0.4, 0.2, 2)),
        ("SortByKey", MemoryConfig(2, 2, 0.0, 0.2, 4)),
    ])
    def test_full_gc_estimate_near_truth(self, name, cfg):
        # With full GC events, the §4.1 estimator recovers the model's
        # true per-task footprint to within ~20%.
        m = workload_model(name)
        p = profile_app(m, cfg, CLUSTER_A)
        st = generate_stats(p)
        assert st.from_full_gc
        assert st.unmanaged_task_mb == pytest.approx(m.unmanaged_task_mb, rel=0.25)

    def test_fallback_overestimates(self):
        # Figure 22: without full GC events the Old-occupancy fallback
        # over-estimates M_u (for SVM, by well over 2x).
        m = workload_model("SVM")
        p = profile_app(m, max_resource_allocation(CLUSTER_A), CLUSTER_A)
        st = generate_stats(p)
        assert not st.from_full_gc
        assert st.unmanaged_task_mb > 2.0 * m.unmanaged_task_mb


class TestReprofilingHeuristics:
    def test_svm_triggers_reprofile(self):
        # §4.1: the default SVM profile lacks full GCs; the heuristics
        # (smaller heap, more concurrency, higher NR) fix that.
        profile, attempts = profile_with_full_gc(
            workload_model("SVM"), max_resource_allocation(CLUSTER_A), CLUSTER_A
        )
        assert attempts > 1
        assert profile.has_full_gc

    def test_pagerank_profiles_first_try(self):
        profile, attempts = profile_with_full_gc(
            workload_model("PageRank"), MemoryConfig(1, 2, 0.6, 0.0, 2), CLUSTER_A
        )
        assert attempts == 1
        assert profile.has_full_gc

    def test_gives_up_after_max_attempts(self):
        # A footprint too small to ever fill Old: every heuristic step is
        # spent, and the Statistics Generator falls back to Old occupancy.
        model = replace(workload_model("WordCount"), unmanaged_task_mb=5.0, shuffle_task_mb=2.0)
        profile, attempts = profile_with_full_gc(model, max_resource_allocation(CLUSTER_A), CLUSTER_A)
        assert attempts == MAX_PROFILE_ATTEMPTS == 3
        assert not profile.has_full_gc
        assert profile.run.config == MemoryConfig(4, 2, 0.4, 0.2, 6)
        st = generate_stats(profile)
        assert not st.from_full_gc
        assert st.unmanaged_task_mb > model.unmanaged_task_mb

    @pytest.mark.parametrize("name", SUITE)
    def test_all_workloads_eventually_profiled(self, name):
        profile, attempts = profile_with_full_gc(
            workload_model(name), max_resource_allocation(CLUSTER_A), CLUSTER_A
        )
        assert profile.has_full_gc
        assert attempts <= 3


class TestRobustness:
    def test_stats_stable_across_profile_seeds(self):
        # §6.4 / Figure 23: estimates from different full-GC profiles
        # have little variance.
        vals = []
        for s in range(4):
            p = profile_app(workload_model("PageRank"), MemoryConfig(1, 2, 0.6, 0.0, 2), CLUSTER_A, seed=s)
            vals.append(generate_stats(p).unmanaged_task_mb)
        assert max(vals) / min(vals) < 1.3

    def test_empty_profile_rejected(self):
        import dataclasses

        p = profile_app(workload_model("SVM"), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        empty = dataclasses.replace(p, containers=())
        with pytest.raises(ValueError):
            generate_stats(empty)
