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


def _build(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, depth: int, nodes: list) -> int:
    """Append the subtree fit to (x, y) to ``nodes`` depth first, one
    [feature, threshold, left, right, value] row per node, and return its
    root. Rows with x[feature] <= threshold go left; a leaf has feature
    -1 and points at itself; value is the mean of the node's targets."""
    node = len(nodes)
    nodes.append([-1, 0.0, node, node, float(y.mean())])
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
    _, feature, threshold, mask = best
    left = _build(x[mask], y[mask], rng, depth + 1, nodes)
    right = _build(x[~mask], y[~mask], rng, depth + 1, nodes)
    nodes[node][:4] = [feature, threshold, left, right]
    return node


def _predict(tree: tuple[np.ndarray, ...], xq: np.ndarray) -> np.ndarray:
    """Each row's leaf value; a row stays at its leaf, so MAX_DEPTH hops suffice."""
    feature, threshold, left, right, value = tree
    rows, node = np.arange(len(xq)), np.zeros(len(xq), dtype=int)
    for _ in range(MAX_DEPTH):
        node = np.where(xq[rows, feature[node]] <= threshold[node], left[node], right[node])
    return value[node]


@dataclass
class RandomForest:
    """Bagged regression trees exposing the Surrogate protocol."""

    trees: list[tuple[np.ndarray, ...]]  # per tree, _build's five columns as arrays

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
            nodes: list = []
            _build(x[idx], y[idx], rng, 0, nodes)
            trees.append(tuple(map(np.array, zip(*nodes))))
        return cls(trees=trees)

    def predict(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and across-tree std at query points."""
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        preds = np.array([_predict(t, xq) for t in self.trees])
        return preds.mean(axis=0), np.maximum(preds.std(axis=0), 1e-9)
