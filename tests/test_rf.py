"""Random-Forest surrogate (§6.5)."""
import numpy as np
import pytest

from repro.tuners.rf import MAX_DEPTH, RandomForest


def toy(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    y = 3 * x[:, 0] + np.where(x[:, 1] > 0.5, 2.0, 0.0)  # non-linear step
    return x, y


class TestRandomForest:
    def test_fit_predict_shapes(self):
        x, y = toy()
        rf = RandomForest.fit(x, y, seed=0)
        mean, std = rf.predict(x[:7])
        assert mean.shape == (7,) and std.shape == (7,)

    def test_beats_constant_predictor(self):
        x, y = toy()
        rf = RandomForest.fit(x, y, seed=0)
        mean, _ = rf.predict(x)
        mse_rf = float(np.mean((mean - y) ** 2))
        mse_const = float(np.var(y))
        assert mse_rf < 0.3 * mse_const

    def test_captures_step_interaction(self):
        # Tree models excel at the step non-linearity (the paper's
        # motivation for trying RF).
        x, y = toy(n=200)
        rf = RandomForest.fit(x, y, seed=1)
        lo = np.array([[0.5, 0.2, 0.5]])
        hi = np.array([[0.5, 0.8, 0.5]])
        assert rf.predict(hi)[0][0] - rf.predict(lo)[0][0] > 1.0

    def test_uncertainty_positive(self):
        x, y = toy()
        rf = RandomForest.fit(x, y, seed=0)
        _, std = rf.predict(np.random.default_rng(1).random((10, 3)))
        assert (std > 0).all()

    def test_deterministic_in_seed(self):
        x, y = toy()
        a, _ = RandomForest.fit(x, y, seed=5).predict(x[:5])
        b, _ = RandomForest.fit(x, y, seed=5).predict(x[:5])
        assert np.array_equal(a, b)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            RandomForest.fit(np.zeros((3, 2)), np.zeros(4))

    def test_works_as_ei_surrogate(self):
        from repro.tuners.gp import expected_improvement

        x, y = toy()
        rf = RandomForest.fit(x, y, seed=0)
        ei = expected_improvement(rf, x[:5], tau=float(y.min()))
        assert (ei >= -1e-9).all()

    def test_array_traversal_matches_plain_walk(self):
        x, y = toy(n=200)
        rf = RandomForest.fit(x, y, seed=0)

        def depth(tree):
            feature, _, left, right, _ = tree
            d = np.zeros(len(feature), dtype=int)
            for i in np.flatnonzero(feature >= 0):  # a parent precedes its children
                d[left[i]] = d[right[i]] = d[i] + 1
            return d.max()

        def walk(tree, row):
            feature, threshold, left, right, value = tree
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            return value[node]

        assert max(depth(t) for t in rf.trees) == MAX_DEPTH
        xq = np.random.default_rng(2).random((500, 3))
        for tree in rf.trees:
            mean, _ = RandomForest(trees=[tree]).predict(xq)
            assert np.array_equal(mean, [walk(tree, row) for row in xq])
