"""Latin Hypercube Sampling (§5.1, Table 7)."""
import numpy as np
import pytest

from repro.cluster import CLUSTER_A
from repro.tuners.base import ConfigSpace
from repro.tuners.lhs import latin_hypercube, lhs_configs, paper_table7_samples


class TestLatinHypercube:
    @pytest.mark.parametrize("k,dim", [(4, 4), (10, 2), (3, 7), (1, 1)])
    def test_shape(self, k, dim):
        pts = latin_hypercube(np.random.default_rng(0), k, dim)
        assert pts.shape == (k, dim)
        assert (pts >= 0).all() and (pts <= 1).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_stratification_property(self, seed):
        # Exactly one sample per 1/k stratum per dimension.
        k = 8
        pts = latin_hypercube(np.random.default_rng(seed), k, 4)
        for d in range(4):
            strata = {min(k - 1, int(v * k)) for v in pts[:, d]}
            assert strata == set(range(k))

    def test_deterministic_in_rng(self):
        a = latin_hypercube(np.random.default_rng(5), 4, 4)
        b = latin_hypercube(np.random.default_rng(5), 4, 4)
        assert np.array_equal(a, b)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            latin_hypercube(np.random.default_rng(0), 0, 4)


class TestConfigSampling:
    def test_lhs_configs_valid(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        for cfg in lhs_configs(space, np.random.default_rng(0)):
            assert 1 <= cfg.containers_per_node <= 4
            assert cfg.task_concurrency <= CLUSTER_A.max_task_concurrency(cfg.containers_per_node)


class TestPaperSamples:
    @pytest.mark.parametrize("pool", ["cache", "shuffle"])
    def test_table7_rows(self, pool):
        space = ConfigSpace(CLUSTER_A, pool)
        samples = paper_table7_samples(space)
        rows = [
            (c.containers_per_node, c.task_concurrency,
             c.cache_capacity if pool == "cache" else c.shuffle_capacity, c.new_ratio)
            for c in samples
        ]
        assert rows == [(1, 4, 0.6, 7), (2, 1, 0.4, 3), (3, 2, 0.2, 5), (4, 2, 0.8, 1)]

    def test_table7_is_a_latin_hypercube(self):
        # Each knob's 4 strata are hit exactly once.
        space = ConfigSpace(CLUSTER_A, "cache")
        samples = paper_table7_samples(space)
        assert {c.containers_per_node for c in samples} == {1, 2, 3, 4}
        assert {c.cache_capacity for c in samples} == {0.2, 0.4, 0.6, 0.8}
        assert {c.new_ratio for c in samples} == {1, 3, 5, 7}
