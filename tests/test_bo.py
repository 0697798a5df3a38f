"""BO / GBO tuning loops (§5.1, §5.2) and the objective runner."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import MINOR_POOL_CAPACITY, MemoryConfig, config_rows
from repro.experiments import fig16_overheads
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
        second = obj(replace(bad_cfg, new_ratio=3))
        # Both penalties stay within 2x of the worst *runtime*.
        worst = max(s.runtime_sec for s in obj.history)
        assert second.objective <= 2.0 * worst + 1e-6
        assert first.objective <= 2.0 * worst + 1e-6

    def test_best_prefers_clean_samples(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        obj(MemoryConfig(1, 2, 0.6, 0.0, 2))  # aborted
        clean = obj(MemoryConfig(2, 1, 0.4, 0.0, 3))
        assert obj.best().config == clean.config

    def test_all_aborted_falls_back_to_lowest_objective(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        probes = [(1, 2, 0.6, 0.0, 2), (1, 4, 0.6, 0.0, 2), (1, 8, 0.8, 0.0, 1)]
        samples = [obj(MemoryConfig(*k)) for k in probes]
        assert all(s.aborted for s in samples)
        best = min(samples, key=lambda s: s.objective)
        assert obj.best() is best
        res = obj.result()
        assert (res.best_config, res.best_runtime_sec) == (best.config, best.runtime_sec)

    def test_result_is_best_plus_history(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        obj(MemoryConfig(1, 2, 0.6, 0.0, 2))  # aborted
        clean = obj(MemoryConfig(2, 1, 0.4, 0.0, 3))
        res = obj.result(fit_times=[1.5])
        assert (res.best_config, res.best_runtime_sec) == (clean.config, clean.runtime_sec)
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
        lo, hi = space.configs(space.decode(np.array([np.zeros(4), np.ones(4)])))
        assert lo.containers_per_node == 1 and hi.containers_per_node == 4
        assert lo.new_ratio == 1 and hi.new_ratio == 9

    def test_decode_clamps_concurrency(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        (cfg,) = space.configs(space.decode(np.array([1.0, 1.0, 0.5, 0.5])))  # n=4, p→8 clamped
        assert cfg.task_concurrency <= CLUSTER_A.max_task_concurrency(4)

    @pytest.mark.parametrize("seed", range(5))
    def test_encode_decode_roundtrip(self, seed):
        # 1,000 points per cluster and pool per seed (20,000 over the five
        # seeds), a margin outside the cube included, plus the §6.1 grid.
        rng = np.random.default_rng(seed)
        for cluster in (CLUSTER_A, CLUSTER_B):
            for pool in ("cache", "shuffle"):
                space = ConfigSpace(cluster, pool)
                x = rng.random((1000, space.dim)) * 1.4 - 0.2
                rows = space.decode(x)
                assert rows.shape == (1000, 5)
                assert rows.tolist() == [space.decode(row)[0].tolist() for row in x]
                for batch in (rows, space.grid_rows()):
                    assert np.array_equal(space.decode(space.encode(batch)), batch)
                    assert np.array_equal(config_rows(space.configs(batch)), batch)

    def test_dominant_pool_placement(self):
        cache_space, shuffle_space = ConfigSpace(CLUSTER_A, "cache"), ConfigSpace(CLUSTER_A, "shuffle")
        (cache_cfg,) = cache_space.configs(cache_space.decode(np.full(4, 0.5)))
        (shuffle_cfg,) = shuffle_space.configs(shuffle_space.decode(np.full(4, 0.5)))
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

    def test_config_rejects_containers_out_of_range(self):
        with pytest.raises(ValueError, match="containers_per_node"):
            ConfigSpace(CLUSTER_A, "cache").config(CLUSTER_A.max_containers_per_node + 1, 1, 0.6, 7)

    def test_keys_equal_exactly_when_rows_are(self):
        rng = np.random.default_rng(0)
        for pool in ("cache", "shuffle"):
            space = ConfigSpace(CLUSTER_B, pool)
            rows = np.vstack([space.decode(rng.random((3000, space.dim))), space.grid_rows()])
            keys = space.keys(rows).tolist()
            by_key = dict(zip(keys, map(tuple, rows.tolist())))
            assert len(by_key) == len(set(map(tuple, rows.tolist())))
            assert all(by_key[k] == tuple(r) for k, r in zip(keys, rows.tolist()))


def decode_reference(space: ConfigSpace, x: np.ndarray) -> list[list]:
    """:meth:`ConfigSpace.decode` one row at a time in plain Python: the
    reference the column-wise decode must match exactly."""
    knobs = space.lo + np.clip(x, 0.0, 1.0) * (space.hi - space.lo)
    rows = []
    for n, p, frac, nr in knobs.tolist():
        n = int(round(n))
        p = min(int(round(p)), space.cluster.max_task_concurrency(n))
        frac = round(frac, 2)
        cache, shuffle = (frac, MINOR_POOL_CAPACITY) if space.dominant_pool == "cache" else (0.0, frac)
        rows.append([n, p, cache, shuffle, int(round(nr))])
    return rows


class TestDecodeRounding:
    """The column-wise decode rounds as Python's ``round`` does."""

    SPACES = [(c, pool) for c in (CLUSTER_A, CLUSTER_B) for pool in ("cache", "shuffle")]
    IDS = [f"{c.name}-{pool}" for c, pool in SPACES]

    @pytest.mark.parametrize("cluster,pool", SPACES, ids=IDS)
    def test_random_points_match_reference(self, cluster, pool):
        space = ConfigSpace(cluster, pool)
        x = np.random.default_rng(1).random((200_000, space.dim)) * 1.4 - 0.2
        assert space.decode(x).tolist() == decode_reference(space, x)

    @pytest.mark.parametrize("cluster,pool", SPACES, ids=IDS)
    def test_half_cent_ties_match_reference(self, cluster, pool):
        # Pool fractions (j + ½)/100 over the §6.1 range and their
        # neighbouring doubles, mapped back into the unit cube, with a few
        # ulps either side of each encoded point.
        space = ConfigSpace(cluster, pool)
        lo, hi = space.FRAC_MIN, space.FRAC_MAX
        ties = (np.arange(round(100 * lo), round(100 * hi)) + 0.5) / 100
        fracs = np.concatenate([ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)])
        u = (fracs - lo) / (hi - lo)
        u = np.concatenate([u] + [u + k * np.spacing(u) for k in (-2, -1, 1, 2)])
        x = np.tile(np.random.default_rng(2).random(space.dim), (len(u), 1))
        x[:, 2] = u
        ref = decode_reference(space, x)
        assert space.decode(x).tolist() == ref
        # The points do reach the cases a scaled np.round gets wrong.
        frac = (space.lo + np.clip(x, 0.0, 1.0) * (space.hi - space.lo))[:, 2]
        col = 2 if pool == "cache" else 3
        assert (np.round(frac, 2) != np.array(ref)[:, col]).any()


class TestBayesianOptimize:
    def test_runs_and_records_bootstrap(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = bayesian_optimize(obj, space, seed=0, bootstrap=paper_table7_samples(space))
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

    def test_surrogate_fit_error_propagates_after_bootstrap(self):
        # A GP fit that fails on every lengthscale raises LinAlgError; the
        # BO loop lets it through, with the bootstrap probes already run.
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("SVM"), CLUSTER_A)

        def fail(x, y):
            raise np.linalg.LinAlgError("GP fit failed on every lengthscale")

        with pytest.raises(np.linalg.LinAlgError):
            bayesian_optimize(obj, space, seed=0, bootstrap=paper_table7_samples(space), surrogate_fit=fail)
        assert [s.config for s in obj.history] == paper_table7_samples(space)

    def test_rf_surrogate_plugs_in(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = bayesian_optimize(
            obj, space, seed=0,
            surrogate_fit=lambda x, y: RandomForest.fit(x, y, seed=0),
            max_iters=8,
        )
        assert res.iterations >= 4


class TestSessionFingerprint:
    def test_sessions_are_bit_identical(self, monkeypatch):
        # Every sample of Figure 16's BO, GBO, BO-RF, GBO-RF and DDPG
        # sessions on four apps (seed 0), hashed down to the bit: the
        # golden tables see only rounded values, so a one-ulp drift in
        # the candidate path would pass them but not this.
        lines = []

        class Recording(Objective):
            def __call__(self, cfg):
                s = super().__call__(cfg)
                lines.append(f"{cfg!r} {s.runtime_sec.hex()} {s.objective.hex()} {s.aborted} {s.failed_containers}")
                return s

        monkeypatch.setattr(fig16_overheads, "Objective", Recording)
        for app in ("WordCount", "SortByKey", "K-means", "SVM"):
            for policy in ("BO", "GBO", "BO-RF", "GBO-RF", "DDPG"):
                lines.append(f"{app} {policy}")
                fig16_overheads.train_to_top5.__wrapped__(app, policy, 0)
        assert len(lines) == 326
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "5d21b8417d7b9fe7fe28156108149cf1adf168cf94c5244654939c649181b147"
        )


class TestGuidedBayesianOptimize:
    def test_features_include_q(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        stats = profiled_stats("K-means", "A", 0)
        feats = gbo_features(space, stats, CLUSTER_A)
        v = feats(config_rows([MemoryConfig(1, 2, 0.6, 0.1, 2)]))
        assert v.shape == (1, 7)  # 4 knobs + q1..q3

    def test_runs_and_labels_policy(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        stats = profiled_stats("K-means", "A", 0)
        obj = Objective(workload_model("K-means"), CLUSTER_A)
        res = guided_bayesian_optimize(obj, space, stats, seed=0,
                                       bootstrap=paper_table7_samples(space))
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
