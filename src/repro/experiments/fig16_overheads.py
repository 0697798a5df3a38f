"""Figure 16 (numbers): training overheads of tuning policies (§6.2).

Each black-box policy is trained until it finds a configuration inside
the top 5 percentile of Exhaustive Search; the reported overhead is the
total (simulated) observation time relative to Exhaustive Search's
full-grid sweep, with the iteration count alongside — exactly the bars
and labels of Figure 16. RelM is charged one run, the Default session's.

The sessions are the runner's ``"top5"`` ones
(:func:`~repro.experiments.sessions.session`); Figure 26's GP rows read
the same runs, and the denominator is the sweep the target reads.
"""
from __future__ import annotations

import numpy as np

from ..workloads import SUITE
from .common import grid_runtimes
from .sessions import DDPG_MAX_STEPS, MAX_ITERS, session
from .tables import Table

#: Approximate paper Figure 16 training overheads (% of Exhaustive) and
#: iteration labels, read off the figure.
PAPER = {
    "WordCount": {"DDPG": ("~8%", 21), "BO": ("~3%", 9), "GBO": ("~2%", 7), "RelM": ("~0.5%", 1)},
    "SortByKey": {"DDPG": ("~9%", 18), "BO": ("~4%", 10), "GBO": ("~2%", 6), "RelM": ("~0.6%", 1)},
    "K-means": {"DDPG": ("~10%", 25), "BO": ("~4%", 12), "GBO": ("~2%", 8), "RelM": ("~0.5%", 1)},
    "SVM": {"DDPG": ("~8%", 20), "BO": ("~3%", 10), "GBO": ("~1.5%", 6), "RelM": ("~0.5%", 1)},
    "PageRank": {"DDPG": ("~10%", 22), "BO": ("~4%", 11), "GBO": ("~2%", 7), "RelM": ("~0.7%", 1)},
}

#: Tuner seeds each black-box policy is averaged over (Figure 26 too).
SEEDS = (0, 1, 2)


def run() -> Table:
    t = Table(
        title="Figure 16 (numbers) — Training overheads vs Exhaustive Search",
        columns=["application", "policy", "paper (% of exhaustive, iters)",
                 "ours (% of exhaustive)", "our iters (mean)"],
        notes=[
            f"Black-box policies averaged over {len(SEEDS)} seeds; trained until "
            "a clean run within the top-5 percentile of the grid (capped at "
            f"{MAX_ITERS} BO/GBO, {DDPG_MAX_STEPS} DDPG iterations).",
        ],
    )
    for name in SUITE:
        ex = grid_runtimes(name, "A", 0).total_observation_sec
        for policy in ("DDPG", "BO", "GBO", "RelM"):
            # RelM is charged one profiling run, the default session,
            # though its profile can take more (ROADMAP item 4).
            res = ([session(name, "A", "Default", 0, "top5")[0]] if policy == "RelM"
                   else [session(name, "A", policy, s, "top5")[0] for s in SEEDS])
            obs, iters = [r.total_observation_sec for r in res], [r.iterations for r in res]
            p_pct, p_iter = PAPER[name][policy]
            t.add(name, policy, f"{p_pct}, {p_iter}", f"{100 * float(np.mean(obs)) / ex:.1f}%",
                  f"{float(np.mean(iters)):.0f}")
    return t
