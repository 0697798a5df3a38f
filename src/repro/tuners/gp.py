"""Gaussian-Process regression + Expected Improvement (paper §5.1).

Implements the exact posterior of Eq 6 (squared-exponential/RBF kernel,
Cholesky solves, standardized targets) and the EI acquisition of Eq 7.
The kernel lengthscale is chosen from a small grid by log marginal
likelihood — enough hyperparameter adaptation for a 4–7 dimensional
space without an optimizer dependency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Jitter added to the kernel diagonal for numerical stability.
JITTER = 1e-8
#: Observation-noise variance (targets are standardized).
NOISE_VAR = 1e-4
#: Lengthscale grid searched by marginal likelihood (inputs are
#: standardized to unit variance, so ~1.0 is the natural midpoint).
LENGTHSCALE_GRID = (0.3, 0.6, 1.0, 1.8, 3.0)


def _rbf(a: np.ndarray, b: np.ndarray, ls: float) -> np.ndarray:
    """Squared-exponential kernel matrix K(a, b)."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    return np.exp(-0.5 * d2 / ls**2)


@dataclass
class GaussianProcess:
    """Fitted GP over standardized inputs and targets.

    Per-dimension input standardization acts as a cheap automatic
    relevance weighting: a feature that varies with the data (e.g. the
    GBO q metrics near a safety cliff) gets full weight in the kernel
    distance regardless of its raw scale.
    """

    x: np.ndarray
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    lengthscale: float
    _chol: np.ndarray
    _alpha: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit a GP to (x, y); lengthscale picked by marginal likelihood."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError(f"x and y length mismatch: {len(x)} vs {len(y)}")
        if len(x) < 2:
            raise ValueError("GP needs at least 2 observations")
        x_mean = x.mean(axis=0)
        x_std = np.maximum(x.std(axis=0), 1e-9)
        x = (x - x_mean) / x_std
        mu, sd = float(y.mean()), float(y.std())
        sd = sd if sd > 1e-12 else 1.0
        ys = (y - mu) / sd

        best = None
        for ls in LENGTHSCALE_GRID:
            k = _rbf(x, x, ls) + (NOISE_VAR + JITTER) * np.eye(len(x))
            try:
                chol = np.linalg.cholesky(k)
            except np.linalg.LinAlgError:
                continue
            alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, ys))
            # log marginal likelihood (up to the constant term).
            lml = -0.5 * ys @ alpha - np.log(np.diag(chol)).sum()
            if best is None or lml > best[0]:
                best = (lml, ls, chol, alpha)
        if best is None:
            raise np.linalg.LinAlgError("GP fit failed on every lengthscale")
        _, ls, chol, alpha = best
        return cls(
            x=x,
            x_mean=x_mean,
            x_std=x_std,
            y_mean=mu,
            y_std=sd,
            lengthscale=ls,
            _chol=chol,
            _alpha=alpha,
        )

    def predict(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points (Eq 6)."""
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        xq = (xq - self.x_mean) / self.x_std
        ks = _rbf(xq, self.x, self.lengthscale)
        mean_s = ks @ self._alpha
        v = np.linalg.solve(self._chol, ks.T)
        var_s = np.maximum(1e-12, 1.0 - (v**2).sum(axis=0))
        return self.y_mean + self.y_std * mean_s, self.y_std * np.sqrt(var_s)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    # Abramowitz–Stegun 7.1.26 rational approximation via erf.
    return 0.5 * (1.0 + _erf(z / np.sqrt(2.0)))


def _erf(x: np.ndarray) -> np.ndarray:
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-(ax**2)))


def expected_improvement(gp: GaussianProcess, xq: np.ndarray, tau: float) -> np.ndarray:
    """EI for *minimization* at ``xq`` given incumbent ``tau`` (Eq 7)."""
    mean, std = gp.predict(xq)
    std = np.maximum(std, 1e-12)
    z = (tau - mean) / std
    return (tau - mean) * _norm_cdf(z) + std * _norm_pdf(z)
