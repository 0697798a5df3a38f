"""The session runner: one tuning session per (workload, cluster, policy,
seed, stop rule), run once per process. Each §6.2 protocol is spelled
here alone, as a stop rule:

* ``"top5"`` (Figures 16 and 26): the session seed's LHS bootstrap, then
  the first clean run inside the top 5 % of the same (workload, cluster,
  seed) grid, capped at :data:`MAX_ITERS` adaptive BO/GBO iterations or
  :data:`DDPG_MAX_STEPS` DDPG steps;
* ``"cherrypick"`` (Table 8's BO/GBO): the Table 7 bootstrap and the
  CherryPick stop (Alipourfard et al., NSDI 2017) with the default caps;
* an integer: a DDPG step budget (Table 8: 10; Figure 27: 30 and 5).

Exhaustive is :func:`~repro.experiments.common.grid_runtimes`, the §6.1
sweep's one cache, whatever the stop rule. ``"Default"``
(MaxResourceAllocation) and ``"RelM"`` ignore it too: each is one run, of
the default or of RelM's recommendation from the seed's profile.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..cluster import cluster_by_name
from ..core import relm_recommend
from ..tuners.base import ConfigSpace, Objective, TuningResult
from ..tuners.bo import bayesian_optimize
from ..tuners.ddpg import DDPGAgent, ddpg_tune
from ..tuners.gbo import guided_bayesian_optimize
from ..tuners.lhs import lhs_configs, paper_table7_samples
from ..tuners.rf import RandomForest
from ..workloads import dominant_pool, workload_model
from .common import default_config, grid_runtimes, profiled_stats, top5_threshold

MAX_ITERS = 60
DDPG_MAX_STEPS = 80
#: The searches :func:`session` runs besides Exhaustive; ``-RF`` swaps
#: BO/GBO's GP for the Random Forest of §6.5 (Figure 26).
SEARCHES = ("DDPG", "BO", "GBO", "BO-RF", "GBO-RF")
#: A session and, for DDPG, the agent it trained (``None`` otherwise).
Session = tuple[TuningResult, DDPGAgent | None]


def session(name: str, cluster_name: str, policy: str, seed: int, stop: str | int, /) -> Session:
    """One session of ``policy``. Callers that train its agent further
    take a copy. The arguments are positional only, so every call of a
    session is the same cache key."""
    if policy == "Exhaustive":
        return grid_runtimes(name, cluster_name, seed), None
    if policy in ("Default", "RelM"):
        return _probe(name, cluster_name, policy, seed), None
    return _search(name, cluster_name, policy, seed, stop)


@lru_cache(maxsize=None)
def _probe(name: str, cluster_name: str, policy: str, seed: int, /) -> TuningResult:
    """The one run of a policy that is not a search."""
    cluster = cluster_by_name(cluster_name)
    cfg = (relm_recommend(profiled_stats(name, cluster_name, seed), cluster)[0] if policy == "RelM"
           else default_config(name, cluster))
    objective = Objective(workload_model(name), cluster, seed=seed)
    objective(cfg)
    return objective.result()


@lru_cache(maxsize=None)
def _search(name: str, cluster_name: str, policy: str, seed: int, stop: str | int, /) -> Session:
    if policy not in SEARCHES:
        raise ValueError(f"unknown policy {policy!r}")
    cluster = cluster_by_name(cluster_name)
    space = ConfigSpace(cluster, dominant_pool(name))
    stats = profiled_stats(name, cluster_name, seed)
    objective = Objective(workload_model(name), cluster, seed=seed)
    target = top5_threshold(name, cluster_name, seed) if stop == "top5" else None

    if policy == "DDPG":
        return ddpg_tune(objective, space, stats, default_config(name, cluster), seed=seed,
                         max_steps=DDPG_MAX_STEPS if stop == "top5" else stop, stop_runtime_sec=target)
    if stop == "top5":
        kw = dict(bootstrap=lhs_configs(space, np.random.default_rng(seed)),
                  max_iters=MAX_ITERS, target_runtime_sec=target)
    elif stop == "cherrypick":
        kw = dict(bootstrap=paper_table7_samples(space))
    else:
        raise ValueError(f"stop rule {stop!r} does not apply to {policy}")
    if policy.endswith("-RF"):
        kw["surrogate_fit"] = lambda x, y: RandomForest.fit(x, y, seed=seed)
    if policy.startswith("GBO"):
        return guided_bayesian_optimize(objective, space, stats, seed=seed, **kw), None
    return bayesian_optimize(objective, space, seed=seed, **kw), None
