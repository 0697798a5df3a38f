"""Table 8: configurations recommended by every tuning policy (§6.2).

Protocol per the paper: Exhaustive Search picks the fastest safe grid
configuration; BO/GBO bootstrap from the Table 7 LHS samples and stop by
the CherryPick rule (EI < 10% and ≥ 6 adaptive samples); DDPG stops
after 10 new samples; RelM recommends from a single (re-)profiled run.

The four tuning sessions of each application run once per process
(:func:`sessions`); Table 9 and Figure 17 read the same runs.
"""
from __future__ import annotations

from functools import lru_cache

from ..cluster import CLUSTER_A
from ..core import relm_recommend
from ..simcluster import SimulatedRun, simulate
from ..tuners.base import ConfigSpace, Objective, TuningResult
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


@lru_cache(maxsize=None)
def sessions(name: str) -> dict[str, TuningResult]:
    """The Exhaustive, DDPG, BO and GBO tuning sessions on one workload
    (seed 0), keyed by policy; run once per process."""
    model = workload_model(name)
    dp = dominant_pool(name)
    space = ConfigSpace(CLUSTER_A, dp)
    stats = profiled_stats(name, "A", 0)
    return {
        "Exhaustive": exhaustive_search(Objective(model, CLUSTER_A), dominant_pool=dp),
        "DDPG": ddpg_tune(
            Objective(model, CLUSTER_A), space, stats, default_config(name), max_steps=10
        )[0],
        "BO": bayesian_optimize(
            Objective(model, CLUSTER_A), space, bootstrap=paper_table7_samples(space)
        ),
        "GBO": guided_bayesian_optimize(
            Objective(model, CLUSTER_A), space, stats, bootstrap=paper_table7_samples(space)
        ),
    }


def recommend_all(name: str) -> dict[str, SimulatedRun]:
    """Each of the five policies' recommendation on one workload,
    simulated: the four :func:`sessions`' best configs and RelM's."""
    model = workload_model(name)
    relm, _, _ = relm_recommend(profiled_stats(name, "A", 0), CLUSTER_A)
    configs = {policy: res.best_config for policy, res in sessions(name).items()} | {"RelM": relm}
    return {policy: simulate(model, cfg, CLUSTER_A) for policy, cfg in configs.items()}


def run() -> Table:
    t = Table(
        title="Table 8 — Recommendations by tuning policy",
        columns=["application", "policy", "paper (n, p, cache, shuffle, NR)", "ours", "our runtime (min)"],
    )
    for name in SUITE:
        recs = recommend_all(name)
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
