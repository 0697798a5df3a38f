"""Table 7: Latin Hypercube samples used in BO initialization (§6.1).

Reports the paper's fixed bootstrap alongside a fresh LHS draw from our
sampler. :func:`strata_covered` checks the LHS stratification property
(one sample per stratum per dimension) on unit-cube points; the table
itself does not call it.
"""
from __future__ import annotations

import numpy as np

from ..cluster import CLUSTER_A
from ..tuners.base import ConfigSpace
from ..tuners.lhs import latin_hypercube, lhs_configs, paper_table7_samples
from .tables import CACHE_GRID_KNOBS, Table, config_str


def strata_covered(points: np.ndarray) -> bool:
    """True iff each dimension has exactly one sample per 1/k stratum."""
    k = len(points)
    for d in range(points.shape[1]):
        if len({min(k - 1, int(v * k)) for v in points[:, d]}) != k:
            return False
    return True


def run() -> Table:
    space = ConfigSpace(CLUSTER_A, "cache")
    rng = np.random.default_rng(0)
    ours = lhs_configs(space, rng, k=4)
    paper = paper_table7_samples(space)
    t = Table(
        title="Table 7 — LHS samples bootstrapping BO",
        columns=["sample", "paper (n, p, pool, NR)", "our draw (n, p, pool, NR)"],
        notes=[
            "The paper's fixed bootstrap is used verbatim in the Table 8/9 "
            "experiments; the fresh draw demonstrates the sampler.",
        ],
    )
    for i, (pc, oc) in enumerate(zip(paper, ours)):
        t.add(
            sample=str(i),
            **{
                "paper (n, p, pool, NR)": config_str(pc, CACHE_GRID_KNOBS),
                "our draw (n, p, pool, NR)": config_str(oc, CACHE_GRID_KNOBS),
            },
        )
    return t
