"""Figure 16 (numbers): training overheads of tuning policies (§6.2).

Each black-box policy is trained until it finds a configuration inside
the top 5 percentile of Exhaustive Search; the reported overhead is the
total (simulated) observation time relative to Exhaustive Search's
full-grid sweep, with the iteration count alongside — exactly the bars
and labels of Figure 16. RelM's overhead is its profiling run(s).

Each session runs once per process (:func:`train_to_top5` is memoised);
Figure 26's GP rows read the BO/GBO sessions this figure ran.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..cluster import CLUSTER_A
from ..simcluster import simulate
from ..tuners.base import ConfigSpace, Objective
from ..tuners.bo import bayesian_optimize
from ..tuners.ddpg import ddpg_tune
from ..tuners.gbo import guided_bayesian_optimize
from ..tuners.lhs import lhs_configs
from ..tuners.rf import RandomForest
from ..workloads import SUITE, dominant_pool, workload_model
from .common import default_config, grid_runtimes, profiled_stats, top5_threshold
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

MAX_ITERS = 60
DDPG_MAX_STEPS = 80
#: Tuner seeds each black-box policy is averaged over (Figure 26 too).
SEEDS = (0, 1, 2)
#: The policies :func:`train_to_top5` trains; ``-RF`` swaps BO/GBO's GP
#: for the Random Forest of §6.5 (Figure 26).
POLICIES = ("RelM", "DDPG", "BO", "GBO", "BO-RF", "GBO-RF")


@lru_cache(maxsize=None)
def train_to_top5(name: str, policy: str, seed: int, /) -> tuple[float, int]:
    """(total observation seconds, iterations) until a clean run lands in
    the top-5 percentile; caps apply if the policy never converges.

    ``policy`` is one of :data:`POLICIES`. The arguments are positional
    only, so every call of a session is the same cache key.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    model = workload_model(name)
    dp = dominant_pool(name)
    space = ConfigSpace(CLUSTER_A, dp)
    thr = top5_threshold(name, "A", seed)
    stats = profiled_stats(name, "A", seed)
    objective = Objective(model, CLUSTER_A, seed=seed)

    if policy == "RelM":
        # One profiling run (the default config) is the whole cost.
        run = simulate(model, default_config(name), CLUSTER_A, seed=seed)
        return run.runtime_sec, 1
    if policy == "DDPG":
        res, _ = ddpg_tune(
            objective, space, stats, default_config(name), seed=seed,
            max_steps=DDPG_MAX_STEPS, stop_runtime_sec=thr,
        )
    else:
        fit = None
        if policy.endswith("-RF"):
            fit = lambda x, y: RandomForest.fit(x, y, seed=seed)  # noqa: E731
        kw = dict(
            seed=seed, bootstrap=lhs_configs(space, np.random.default_rng(seed)),
            surrogate_fit=fit, max_iters=MAX_ITERS, target_runtime_sec=thr,
        )
        if policy.startswith("BO"):
            res = bayesian_optimize(objective, space, **kw)
        else:
            res = guided_bayesian_optimize(objective, space, stats, **kw)
    return res.total_observation_sec, res.iterations


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
        ex = sum(grid_runtimes(name, "A", 0))
        for policy in ("DDPG", "BO", "GBO", "RelM"):
            seeds = SEEDS[:1] if policy == "RelM" else SEEDS
            obs, iters = zip(*(train_to_top5(name, policy, s) for s in seeds))
            p_pct, p_iter = PAPER[name][policy]
            t.add(
                application=name,
                policy=policy,
                **{
                    "paper (% of exhaustive, iters)": f"{p_pct}, {p_iter}",
                    "ours (% of exhaustive)": f"{100 * float(np.mean(obs)) / ex:.1f}%",
                    "our iters (mean)": f"{float(np.mean(iters)):.0f}",
                },
            )
    return t
