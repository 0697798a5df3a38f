"""Table 8: configurations recommended by every tuning policy (§6.2).

Protocol per the paper: Exhaustive Search picks the fastest safe grid
configuration; BO/GBO bootstrap from the Table 7 LHS samples and stop by
the CherryPick rule (EI < 10% and ≥ 6 adaptive samples); DDPG stops
after 10 new samples; RelM recommends from a single (re-)profiled run.

The five sessions of each application come from the session runner
(:func:`~repro.experiments.sessions.session`); Tables 9 and 10 and
Figure 17 read the same runs. A session recommends the best run it
observed, so nothing is simulated here.
"""
from __future__ import annotations

from ..simcluster import SimulatedRun
from ..workloads import SUITE
from .sessions import session
from .tables import Table, config_str, knob_tuple, minutes

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


def recommend_all(name: str) -> dict[str, SimulatedRun]:
    """Each of the five policies' recommended run on one workload: the
    :attr:`~repro.tuners.base.TuningResult.best` sample of its session."""
    return {policy: session(name, "A", policy, 0, 10 if policy == "DDPG" else "cherrypick")[0].best
            for policy in POLICIES}


def run() -> Table:
    t = Table(
        title="Table 8 — Recommendations by tuning policy",
        columns=["application", "policy", "paper (n, p, cache, shuffle, NR)", "ours", "our runtime (min)"],
    )
    for name in SUITE:
        recs = recommend_all(name)
        for policy in POLICIES:
            rec = recs[policy]
            t.add(name, policy, knob_tuple(PAPER[name][policy]), config_str(rec.config),
                  minutes(rec) + (f" [{rec.failed_containers} failed]" if rec.failed_containers else ""))
    return t
