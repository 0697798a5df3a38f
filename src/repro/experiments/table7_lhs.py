"""Table 7: Latin Hypercube samples used in BO initialization (§6.1).

Reports the paper's fixed bootstrap alongside a fresh LHS draw from our
sampler.
"""
from __future__ import annotations

import numpy as np

from ..cluster import CLUSTER_A
from ..tuners.base import ConfigSpace
from ..tuners.lhs import lhs_configs, paper_table7_samples
from .tables import CACHE_GRID_KNOBS, Table, config_str


def run() -> Table:
    space = ConfigSpace(CLUSTER_A, "cache")
    rng = np.random.default_rng(0)
    ours = lhs_configs(space, rng)
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
        t.add(str(i), config_str(pc, CACHE_GRID_KNOBS), config_str(oc, CACHE_GRID_KNOBS))
    return t
