"""Simulated profiling (repro.simcluster.profile_gen)."""
import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import MemoryConfig, max_resource_allocation
from repro.experiments.common import default_config
from repro.simcluster import simulate
from repro.simcluster.profile_gen import MAX_PROFILED_CONTAINERS, profile_app
from repro.workloads import SUITE, workload_model


class TestProfileShape:
    @pytest.mark.parametrize("name", SUITE)
    def test_container_count_capped(self, name):
        p = profile_app(workload_model(name), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        assert 1 <= len(p.containers) <= MAX_PROFILED_CONTAINERS

    def test_deterministic_in_seed(self):
        m = workload_model("PageRank")
        cfg = MemoryConfig(1, 2, 0.6, 0.0, 2)
        a = profile_app(m, cfg, CLUSTER_A, seed=3)
        b = profile_app(m, cfg, CLUSTER_A, seed=3)
        assert a.containers[0].code_mb == b.containers[0].code_mb
        assert len(a.containers[0].full_gc) == len(b.containers[0].full_gc)

    def test_containers_jitter(self):
        p = profile_app(workload_model("PageRank"), MemoryConfig(1, 2, 0.6, 0.0, 2), CLUSTER_A)
        codes = {c.code_mb for c in p.containers}
        assert len(codes) > 1  # per-container variance exists (§4.1)

    def test_profile_carries_run_observables(self):
        m = workload_model("K-means")
        cfg = max_resource_allocation(CLUSTER_A)
        p = profile_app(m, cfg, CLUSTER_A)
        assert 0 <= p.run.layout.cache_hit_ratio <= 1
        assert p.run.runtime_sec > 0
        assert p.run.config.task_concurrency == cfg.task_concurrency

    @pytest.mark.parametrize("cluster", [CLUSTER_A, CLUSTER_B], ids=["A", "B"])
    @pytest.mark.parametrize("name", SUITE)
    def test_profile_is_the_simulated_run(self, name, cluster):
        # The profile describes exactly the run an Objective observes.
        m, cfg = workload_model(name), default_config(name, cluster)
        for seed in (0, 1):
            assert profile_app(m, cfg, cluster, seed=seed).run == simulate(m, cfg, cluster, seed=seed)


class TestFullGcSnapshots:
    def test_pressured_profile_has_snapshots(self):
        p = profile_app(workload_model("PageRank"), MemoryConfig(1, 2, 0.6, 0.0, 2), CLUSTER_A)
        assert p.has_full_gc
        snap = p.containers[0].full_gc[0]
        c = p.containers[0]
        # The snapshot decomposes as §4.1 requires: heap = code + cache +
        # P·(unmanaged + shuffle), all components recoverable.
        assert snap.heap_used_mb > c.code_mb + snap.cache_mb

    def test_light_profile_has_none(self):
        p = profile_app(workload_model("SVM"), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        assert not p.has_full_gc

    def test_no_full_gc_old_peak_is_garbage_dominated(self):
        # Without full GCs, Old occupancy reflects accumulated garbage,
        # near capacity — the Figure 22 over-estimation source.
        p = profile_app(workload_model("SVM"), max_resource_allocation(CLUSTER_A), CLUSTER_A)
        c = p.containers[0]
        heap = c.heap_mb
        old_capacity = heap * 2 / 3  # NR=2
        assert c.old_peak_mb > 0.7 * old_capacity
