"""BO / GBO tuning loops (§5.1, §5.2) and the objective runner."""
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import CLUSTER_A
from repro.config import MINOR_POOL_CAPACITY, MemoryConfig
from repro.experiments.common import profiled_stats, top5_threshold
from repro.tuners.base import ConfigSpace, Objective
from repro.tuners.bo import MIN_ADAPTIVE_SAMPLES, bayesian_optimize
from repro.tuners.gbo import gbo_features, guided_bayesian_optimize
from repro.tuners.lhs import lhs_configs, paper_table7_samples
from repro.tuners.rf import RandomForest
from repro.workloads import dominant_pool, workload_model


class TestObjective:
    def test_clean_run_objective_is_runtime(self):
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        s = obj(MemoryConfig(2, 2, 0.5, 0.1, 3))
        assert not s.aborted
        assert s.objective == s.runtime_sec

    def test_abort_penalty_rule(self):
        # §6.1: aborted runs score twice the worst runtime seen so far.
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        clean = obj(MemoryConfig(2, 1, 0.4, 0.0, 3))
        bad = obj(MemoryConfig(1, 2, 0.6, 0.0, 2))
        assert bad.aborted
        worst_runtime = max(clean.runtime_sec, bad.runtime_sec)
        assert bad.objective == pytest.approx(2.0 * worst_runtime)

    def test_penalty_does_not_compound(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        bad_cfg = MemoryConfig(1, 2, 0.6, 0.0, 2)
        first = obj(bad_cfg)
        second = obj(bad_cfg.with_(new_ratio=3))
        # Both penalties stay within 2x of the worst *runtime*.
        worst = max(s.runtime_sec for s in obj.history)
        assert second.objective <= 2.0 * worst + 1e-6
        assert first.objective <= 2.0 * worst + 1e-6

    def test_best_prefers_clean_samples(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        obj(MemoryConfig(1, 2, 0.6, 0.0, 2))  # aborted
        clean = obj(MemoryConfig(2, 1, 0.4, 0.0, 3))
        assert obj.best().config == clean.config

    def test_result_is_best_plus_history(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        obj(MemoryConfig(1, 2, 0.6, 0.0, 2))  # aborted
        clean = obj(MemoryConfig(2, 1, 0.4, 0.0, 3))
        res = obj.result("X", fit_seconds=1.5)
        assert (res.policy, res.best_config, res.best_runtime_sec) == (
            "X", clean.config, clean.runtime_sec)
        assert res.samples == obj.history and res.samples is not obj.history
        assert (res.fit_seconds, res.probe_seconds) == (1.5, 0.0)

    def test_meets_needs_a_clean_run_at_target(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        bad = obj(MemoryConfig(1, 2, 0.6, 0.0, 2))
        clean = obj(MemoryConfig(2, 1, 0.4, 0.0, 3))
        assert clean.meets(clean.runtime_sec)
        assert not clean.meets(clean.runtime_sec - 1e-6)
        assert not replace(clean, failed_containers=1).meets(clean.runtime_sec)
        assert bad.aborted and not bad.meets(float("inf"))


class TestConfigSpace:
    def test_decode_unit_cube_corners(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        lo = space.decode(np.zeros(4))
        hi = space.decode(np.ones(4))
        assert lo.containers_per_node == 1 and hi.containers_per_node == 4
        assert lo.new_ratio == 1 and hi.new_ratio == 9

    def test_decode_clamps_concurrency(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        cfg = space.decode(np.array([1.0, 1.0, 0.5, 0.5]))  # n=4, p→8 clamped
        assert cfg.task_concurrency <= CLUSTER_A.max_task_concurrency(4)

    @pytest.mark.parametrize("seed", range(5))
    def test_encode_decode_roundtrip(self, seed):
        space = ConfigSpace(CLUSTER_A, "shuffle")
        rng = np.random.default_rng(seed)
        for cfg in space.sample(rng, 10):
            again = space.decode(space.encode(cfg))
            assert again.containers_per_node == cfg.containers_per_node
            assert again.task_concurrency == cfg.task_concurrency
            assert again.new_ratio == cfg.new_ratio

    def test_dominant_pool_placement(self):
        cache_cfg = ConfigSpace(CLUSTER_A, "cache").decode(np.full(4, 0.5))
        shuffle_cfg = ConfigSpace(CLUSTER_A, "shuffle").decode(np.full(4, 0.5))
        assert cache_cfg.cache_capacity > 0 and cache_cfg.shuffle_capacity == 0.1
        assert shuffle_cfg.cache_capacity == 0.0 and shuffle_cfg.shuffle_capacity > 0

    def test_rejects_unknown_pool(self):
        with pytest.raises(ValueError):
            ConfigSpace(CLUSTER_A, "heap")

    @pytest.mark.parametrize(
        "pool,cache,shuffle", [("cache", 0.6, MINOR_POOL_CAPACITY), ("shuffle", 0.0, 0.6)]
    )
    def test_config_caps_concurrency_and_places_pools(self, pool, cache, shuffle):
        cfg = ConfigSpace(CLUSTER_A, pool).config(4, 8, 0.6, 7)
        assert cfg == MemoryConfig(4, CLUSTER_A.max_task_concurrency(4), cache, shuffle, 7)


class TestBayesianOptimize:
    def test_runs_and_records_bootstrap(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = bayesian_optimize(obj, space, seed=0, bootstrap=paper_table7_samples(space))
        assert res.policy == "BO"
        assert res.iterations >= 4 + MIN_ADAPTIVE_SAMPLES
        assert [s.config for s in res.samples[:4]] == paper_table7_samples(space)

    def test_best_is_min_clean(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = bayesian_optimize(obj, space, seed=0)
        clean = [s for s in res.samples if not s.aborted]
        assert res.best_runtime_sec == min(s.runtime_sec for s in clean if s.objective == min(c.objective for c in clean))

    def test_improves_over_bootstrap(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("K-means"), CLUSTER_A)
        res = bayesian_optimize(obj, space, seed=1, bootstrap=paper_table7_samples(space))
        boot_best = min(s.objective for s in res.samples[:4])
        assert res.best_runtime_sec <= boot_best

    def test_target_mode_stops_on_threshold(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        thr = top5_threshold("SVM", "A", 0)
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = bayesian_optimize(obj, space, seed=0, target_runtime_sec=thr, max_iters=60)
        reached = [s for s in res.samples if not s.aborted and s.runtime_sec <= thr]
        assert reached
        # Stops at the first hit: nothing after the first reaching sample.
        first = next(i for i, s in enumerate(res.samples)
                     if not s.aborted and s.failed_containers == 0 and s.runtime_sec <= thr)
        assert first == len(res.samples) - 1

    def test_timing_breakdown_populated(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = bayesian_optimize(obj, space, seed=0)
        assert res.fit_seconds > 0 and res.probe_seconds > 0

    def test_rf_surrogate_plugs_in(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = bayesian_optimize(
            obj, space, seed=0,
            surrogate_fit=lambda x, y: RandomForest.fit(x, y, seed=0),
            max_iters=8,
        )
        assert res.iterations >= 4


class TestGuidedBayesianOptimize:
    def test_features_include_q(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        stats = profiled_stats("K-means", "A", 0)
        feats = gbo_features(space, stats, CLUSTER_A)
        v = feats(MemoryConfig(1, 2, 0.6, 0.1, 2))
        assert v.shape == (7,)  # 4 knobs + q1..q3

    def test_runs_and_labels_policy(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        stats = profiled_stats("K-means", "A", 0)
        obj = Objective(workload_model("K-means"), CLUSTER_A)
        res = guided_bayesian_optimize(obj, space, stats, seed=0,
                                       bootstrap=paper_table7_samples(space))
        assert res.policy == "GBO"
        assert res.best_runtime_sec > 0

    def test_pagerank_guided_finds_safe_config(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        stats = profiled_stats("PageRank", "A", 0)
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        rng = np.random.default_rng(2)
        res = guided_bayesian_optimize(
            obj, space, stats, seed=2, bootstrap=lhs_configs(space, rng), max_iters=40,
        )
        best = obj.best()
        assert not best.aborted
