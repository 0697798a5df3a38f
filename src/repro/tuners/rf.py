"""Random-Forest regression surrogate (paper §6.5, Figure 26).

A compact bagged-regression-tree ensemble in numpy: axis-aligned splits
minimizing SSE, depth/leaf limits, bootstrap rows and random feature
subsets per split. The ensemble's per-tree spread provides the
uncertainty estimate EI needs — the standard trick for tree-based SMBO
(SMAC-style), matching the paper's observation that tree models capture
non-linear interactions but lack the GP's calibrated confidence bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEPTH = 6
MIN_LEAF = 2
N_TREES = 25


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _build(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, depth: int) -> _Node:
    node = _Node(value=float(y.mean()))
    if depth >= MAX_DEPTH or len(y) < 2 * MIN_LEAF or np.allclose(y, y[0]):
        return node
    n_feat = x.shape[1]
    feats = rng.choice(n_feat, size=max(1, int(np.ceil(n_feat / 2))), replace=False)
    best = None  # (sse, feature, threshold, mask)
    for f in feats:
        vals = np.unique(x[:, f])
        if len(vals) < 2:
            continue
        for t in (vals[:-1] + vals[1:]) / 2.0:
            mask = x[:, f] <= t
            nl = int(mask.sum())
            if nl < MIN_LEAF or len(y) - nl < MIN_LEAF:
                continue
            yl, yr = y[mask], y[~mask]
            sse = ((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum()
            if best is None or sse < best[0]:
                best = (sse, int(f), float(t), mask)
    if best is None:
        return node
    _, node.feature, node.threshold, mask = best
    node.left = _build(x[mask], y[mask], rng, depth + 1)
    node.right = _build(x[~mask], y[~mask], rng, depth + 1)
    return node


def _predict_one(node: _Node, row: np.ndarray) -> float:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right  # type: ignore[assignment]
    return node.value


@dataclass
class RandomForest:
    """Bagged regression trees exposing the Surrogate protocol."""

    trees: list[_Node]

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, *, seed: int = 0) -> "RandomForest":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError("x/y length mismatch")
        rng = np.random.default_rng(seed)
        trees = []
        for _ in range(N_TREES):
            idx = rng.integers(0, len(y), len(y))  # bootstrap sample
            trees.append(_build(x[idx], y[idx], rng, depth=0))
        return cls(trees=trees)

    def predict(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and across-tree std at query points."""
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        preds = np.array([[_predict_one(t, row) for row in xq] for t in self.trees])
        return preds.mean(axis=0), np.maximum(preds.std(axis=0), 1e-9)
