"""Table 8: configurations recommended by every tuning policy (§6.2).

Protocol per the paper: Exhaustive Search picks the fastest safe grid
configuration; BO/GBO bootstrap from the Table 7 LHS samples and stop by
the CherryPick rule (EI < 10% and ≥ 6 adaptive samples); DDPG stops
after 10 new samples; RelM recommends from a single (re-)profiled run.
"""
from __future__ import annotations

from ..cluster import CLUSTER_A
from ..core import relm_recommend
from ..simcluster import SimulatedRun, simulate
from ..tuners.base import ConfigSpace, Objective
from ..tuners.bo import bayesian_optimize
from ..tuners.ddpg import ddpg_tune
from ..tuners.exhaustive import exhaustive_search
from ..tuners.gbo import guided_bayesian_optimize
from ..tuners.lhs import paper_table7_samples
from ..workloads import SUITE, dominant_pool, workload_model
from .common import default_config, profiled_stats
from .tables import Table, config_str

#: Paper Table 8: (policy → (n, p, cache, shuffle, NR)) per application.
PAPER = {
    "WordCount": {
        "Exhaustive": (4, 2, 0, 0.4, 1),
        "DDPG": (3, 2, 0, 0.6, 3),
        "BO": (4, 2, 0, 0.3, 1),
        "GBO": (4, 2, 0, 0.3, 1),
        "RelM": (4, 2, 0, 0.23, 1),
    },
    "SortByKey": {
        "Exhaustive": (4, 1, 0, 0.2, 1),
        "DDPG": (3, 2, 0, 0.2, 1),
        "BO": (3, 2, 0, 0.2, 3),
        "GBO": (3, 2, 0, 0.2, 1),
        "RelM": (4, 1, 0, 0.23, 1),
    },
    "K-means": {
        "Exhaustive": (3, 2, 0.8, 0, 7),
        "DDPG": (1, 4, 0.6, 0, 4),
        "BO": (3, 1, 0.75, 0, 3),
        "GBO": (3, 1, 0.8, 0, 5),
        "RelM": (2, 2, 0.68, 0, 4),
    },
    "SVM": {
        "Exhaustive": (3, 2, 0.8, 0.1, 3),
        "DDPG": (2, 3, 0.6, 0.1, 3),
        "BO": (3, 2, 0.2, 0.1, 1),
        "GBO": (2, 3, 0.4, 0.1, 3),
        "RelM": (3, 2, 0.51, 0.07, 2),
    },
    "PageRank": {
        "Exhaustive": (2, 1, 0.4, 0, 3),
        "DDPG": (1, 4, 0.2, 0, 5),
        "BO": (1, 2, 0.4, 0, 3),
        "GBO": (2, 1, 0.4, 0, 3),
        "RelM": (2, 1, 0.24, 0, 5),
    },
}

POLICIES = ("Exhaustive", "DDPG", "BO", "GBO", "RelM")


def recommend_all(name: str, *, seed: int = 0) -> dict[str, SimulatedRun]:
    """Run all five policies on one workload and simulate each policy's
    recommendation; deterministic in ``seed``."""
    model = workload_model(name)
    dp = dominant_pool(name)
    space = ConfigSpace(CLUSTER_A, dp)
    stats = profiled_stats(name, "A", seed)
    dflt = default_config(name)

    ex = exhaustive_search(Objective(model, CLUSTER_A, seed=seed), dominant_pool=dp)
    dd, _ = ddpg_tune(
        Objective(model, CLUSTER_A, seed=seed), space, stats, dflt, seed=seed, max_steps=10
    )
    bo = bayesian_optimize(
        Objective(model, CLUSTER_A, seed=seed), space, seed=seed,
        bootstrap=paper_table7_samples(space),
    )
    gbo = guided_bayesian_optimize(
        Objective(model, CLUSTER_A, seed=seed), space, stats, seed=seed,
        bootstrap=paper_table7_samples(space),
    )
    relm, _, _ = relm_recommend(stats, CLUSTER_A)
    configs = (ex.best_config, dd.best_config, bo.best_config, gbo.best_config, relm)
    return {
        policy: simulate(model, cfg, CLUSTER_A, seed=seed)
        for policy, cfg in zip(POLICIES, configs)
    }


def run(seed: int = 0) -> Table:
    t = Table(
        title="Table 8 — Recommendations by tuning policy",
        columns=["application", "policy", "paper (n, p, cache, shuffle, NR)", "ours", "our runtime (min)"],
    )
    for name in SUITE:
        recs = recommend_all(name, seed=seed)
        for policy in POLICIES:
            rec = recs[policy]
            t.add(
                application=name,
                policy=policy,
                **{
                    "paper (n, p, cache, shuffle, NR)": str(PAPER[name][policy]),
                    "ours": config_str(rec.config),
                    "our runtime (min)": f"{rec.runtime_sec / 60:.1f}"
                    + (" (aborted)" if rec.aborted else "")
                    + (f" [{rec.failed_containers} failed]" if rec.failed_containers else ""),
                },
            )
    return t
