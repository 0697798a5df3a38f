"""Latin Hypercube Sampling (paper §5.1, Table 7).

LHS stratifies each dimension into k intervals and places one sample in
every interval per dimension, giving near-random coverage of the
multidimensional space — the bootstrap for BO/GBO (§6.1 uses 4 samples,
one per configuration-space dimension).
"""
from __future__ import annotations

import numpy as np

from ..config import MemoryConfig
from .base import ConfigSpace


def latin_hypercube(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    """k stratified samples in [0,1]^dim (one per row)."""
    if k < 1 or dim < 1:
        raise ValueError("k and dim must be positive")
    u = (rng.random((k, dim)) + np.arange(k)[:, None]) / k  # jitter within strata
    out = np.empty_like(u)
    for d in range(dim):
        out[:, d] = rng.permutation(u[:, d])
    return out


def lhs_configs(space: ConfigSpace, rng: np.random.Generator) -> list[MemoryConfig]:
    """LHS bootstrap configurations in ``space``, one per dimension (§6.1)."""
    return space.configs(space.decode(latin_hypercube(rng, space.dim, space.dim)))


def paper_table7_samples(space: ConfigSpace) -> list[MemoryConfig]:
    """The exact LHS bootstrap the paper lists in Table 7.

    (Containers per Node, Task Concurrency, dominant pool fraction,
    NewRatio) = (1,4,.6,7), (2,1,.4,3), (3,2,.2,5), (4,2,.8,1).
    Containers, pool fraction and NewRatio each hit every stratum once;
    Task Concurrency (4, 1, 2, 2) repeats 2, so in that dimension the
    paper's bootstrap is not a strict Latin Hypercube.
    """
    rows = [(1, 4, 0.6, 7), (2, 1, 0.4, 3), (3, 2, 0.2, 5), (4, 2, 0.8, 1)]
    return [space.config(*row) for row in rows]
