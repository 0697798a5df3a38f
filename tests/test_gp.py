"""Gaussian Process regression and Expected Improvement (§5.1)."""
import numpy as np
import pytest

from repro.tuners.gp import GaussianProcess, expected_improvement, _erf, _norm_cdf, _sqdist


class TestErf:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 0.8427), (-1.0, -0.8427), (2.0, 0.9953)])
    def test_known_values(self, x, expected):
        assert _erf(np.array([x]))[0] == pytest.approx(expected, abs=2e-4)

    def test_cdf_monotone(self):
        z = np.linspace(-4, 4, 100)
        assert (np.diff(_norm_cdf(z)) >= 0).all()


class TestSqdist:
    def test_bit_identical_to_broadcast_reduction(self):
        # Column-wise accumulation equals the (k, n, d) broadcast sum
        # exactly for d <= 7, which covers BO's 4 and GBO's 7 features.
        rng = np.random.default_rng(0)
        for _ in range(1400):
            d = rng.integers(1, 8)
            k, n = rng.integers(1, 60, size=2)
            a = rng.normal(size=(k, d)) * rng.uniform(0.1, 10.0)
            b = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
            expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
            assert np.array_equal(_sqdist(a, b), expected)


def toy_1d(n=8, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 1, n)[:, None]
    y = np.sin(4 * x.ravel())
    return x, y


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        x, y = toy_1d()
        gp = GaussianProcess.fit(x, y)
        mean, _ = gp.predict(x)
        assert np.allclose(mean, y, atol=0.05)

    def test_variance_low_at_train_high_far(self):
        x, y = toy_1d()
        gp = GaussianProcess.fit(x, y)
        _, std_at = gp.predict(x[:1])
        _, std_far = gp.predict(np.array([[5.0]]))
        assert std_at[0] < std_far[0]

    def test_reverts_to_mean_far_away(self):
        x, y = toy_1d()
        gp = GaussianProcess.fit(x, y)
        mean, _ = gp.predict(np.array([[100.0]]))
        assert mean[0] == pytest.approx(y.mean(), abs=1e-6)

    def test_prediction_between_points_is_sane(self):
        x, y = toy_1d(n=20)
        gp = GaussianProcess.fit(x, y)
        xs = np.array([[0.33]])
        mean, _ = gp.predict(xs)
        assert abs(mean[0] - np.sin(4 * 0.33)) < 0.1

    def test_handles_constant_targets(self):
        x = np.random.default_rng(0).random((5, 3))
        y = np.full(5, 7.0)
        gp = GaussianProcess.fit(x, y)
        mean, _ = gp.predict(x)
        assert np.allclose(mean, 7.0, atol=1e-6)

    def test_multidimensional(self):
        rng = np.random.default_rng(1)
        x = rng.random((30, 4))
        y = x @ np.array([1.0, -2.0, 0.5, 0.0])
        gp = GaussianProcess.fit(x, y)
        mean, _ = gp.predict(x[:5])
        assert np.allclose(mean, y[:5], atol=0.15)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            GaussianProcess.fit(np.zeros((3, 2)), np.zeros(4))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            GaussianProcess.fit(np.zeros((1, 2)), np.zeros(1))

    def test_input_standardization_handles_scale(self):
        # A feature on a wildly different scale must not break the fit.
        rng = np.random.default_rng(2)
        x = np.column_stack([rng.random(20), rng.random(20) * 1000])
        y = x[:, 0] * 2
        gp = GaussianProcess.fit(x, y)
        mean, _ = gp.predict(x[:5])
        assert np.allclose(mean, y[:5], atol=0.3)


class TestExpectedImprovement:
    def test_nonnegative(self):
        x, y = toy_1d()
        gp = GaussianProcess.fit(x, y)
        xs = np.random.default_rng(0).random((50, 1))
        ei = expected_improvement(gp, xs, tau=float(y.min()))
        assert (ei >= -1e-9).all()

    def test_zero_at_well_known_bad_point(self):
        x, y = toy_1d(n=20)
        gp = GaussianProcess.fit(x, y)
        worst = x[np.argmax(y)][None, :]
        ei = expected_improvement(gp, worst, tau=float(y.min()))
        assert ei[0] < 0.05

    def test_prefers_promising_region(self):
        # Minimize y = (x-0.3)^2 with a gap around the optimum: EI should
        # rank a point near 0.3 above a point near 0.9.
        x = np.array([[0.0], [0.1], [0.5], [0.7], [0.9], [1.0]])
        y = (x.ravel() - 0.3) ** 2
        gp = GaussianProcess.fit(x, y)
        ei = expected_improvement(gp, np.array([[0.3], [0.95]]), tau=float(y.min()))
        assert ei[0] > ei[1]

    def test_ei_minimization_convergence(self):
        # A tiny BO loop on a 1-D quadratic reaches the optimum region.
        rng = np.random.default_rng(3)
        f = lambda x: (x - 0.62) ** 2  # noqa: E731
        xs = list(rng.random(4))
        for _ in range(12):
            x_arr = np.array(xs)[:, None]
            y_arr = f(x_arr.ravel())
            gp = GaussianProcess.fit(x_arr, y_arr)
            cand = rng.random(200)[:, None]
            ei = expected_improvement(gp, cand, tau=float(y_arr.min()))
            xs.append(float(cand[np.argmax(ei)][0]))
        assert min(f(np.array(xs))) < 1e-3
