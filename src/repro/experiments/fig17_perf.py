"""Figure 17 (numbers): runtime of recommended configurations scaled to
the MaxResourceAllocation default, with failed-container counts (§6.2).

Reads Table 8's recommendations (its sessions run once per process);
the runner's ``"Default"`` session is the denominator (an aborted
default — PageRank — uses its wall time until abort, as the paper does).
"""
from __future__ import annotations

from ..workloads import SUITE
from .sessions import session
from .table8_recommendations import POLICIES, recommend_all
from .tables import Table, minutes

#: Approximate Figure 17 bars: runtime relative to the default and the
#: failed-container labels, read off the figure.
PAPER = {
    "WordCount": {"Exhaustive": (0.30, 0), "DDPG": (0.40, 0), "BO": (0.33, 0), "GBO": (0.33, 0), "RelM": (0.35, 0)},
    "SortByKey": {"Exhaustive": (0.45, 0), "DDPG": (0.50, 0), "BO": (0.50, 0), "GBO": (0.48, 0), "RelM": (0.50, 0)},
    "K-means": {"Exhaustive": (0.30, 2), "DDPG": (0.45, 0), "BO": (0.35, 1), "GBO": (0.33, 1), "RelM": (0.35, 0)},
    "SVM": {"Exhaustive": (0.45, 0), "DDPG": (0.55, 0), "BO": (0.90, 0), "GBO": (0.80, 0), "RelM": (0.50, 0)},
    "PageRank": {"Exhaustive": (0.40, 0), "DDPG": (0.55, 2), "BO": (0.45, 0), "GBO": (0.42, 3), "RelM": (0.45, 0)},
}


def run() -> Table:
    t = Table(
        title="Figure 17 (numbers) — Recommended runtime relative to defaults",
        columns=["application", "default (min)", "policy",
                 "paper (rel, failures)", "ours (rel)", "our failures"],
    )
    for name in SUITE:
        base = session(name, "A", "Default", 0, "cherrypick")[0].best
        recs = recommend_all(name)
        for policy in POLICIES:
            rec = recs[policy]
            p_rel, p_fail = PAPER[name][policy]
            t.add(name, minutes(base), policy,
                  f"~{p_rel:.2f}, {p_fail}", f"{rec.runtime_sec / base.runtime_sec:.2f}",
                  str(rec.failed_containers) + (" (aborted)" if rec.aborted else ""))
    return t
