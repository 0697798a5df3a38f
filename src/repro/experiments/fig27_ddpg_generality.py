"""Figure 27 (numbers): DDPG generality across environments (§6.6).

Trains a DDPG agent on SVM @ Cluster A, then lets it tune SVM @
Cluster B with only 5 test samples (DDPG_A^B), compared against an
agent trained only on Cluster B (DDPG_B^B) and against a same-budget
cold agent. The paper's finding: reward-feedback training transfers, so
the pre-trained agent adapts quickly to the hardware change.
"""
from __future__ import annotations

import copy
from functools import lru_cache

from ..cluster import CLUSTER_A, CLUSTER_B
from ..tuners.base import ConfigSpace, Objective, TuningResult
from ..tuners.ddpg import DDPGAgent, ddpg_tune
from ..workloads import dominant_pool, workload_model
from .common import default_config, profiled_stats
from .tables import Table

NAME = "SVM"
CROSS_TEST_SAMPLES = 5


@lru_cache(maxsize=None)
def train_on_a() -> tuple[TuningResult, DDPGAgent]:
    """The full 30-step DDPG session on SVM @ Cluster A and the agent it
    trained, run once per process (Table 10 reads its times). Callers
    that train the agent further take a copy."""
    return ddpg_tune(
        Objective(workload_model(NAME), CLUSTER_A), ConfigSpace(CLUSTER_A, dominant_pool(NAME)),
        profiled_stats(NAME, "A", 0), default_config(NAME, CLUSTER_A), max_steps=30,
    )


def run() -> Table:
    space_b = ConfigSpace(CLUSTER_B, dominant_pool(NAME))
    stats_b = profiled_stats(NAME, "B", 0)
    t = Table(
        title="Figure 27 (numbers) — DDPG generality (SVM, Cluster A → B)",
        columns=["agent", "samples on B", "best runtime on B (min)"],
        notes=[
            "Paper shape: the A-pretrained agent with 5 samples lands close "
            "to the natively-trained agent; a cold agent with the same "
            "budget does not.",
        ],
    )
    for label, steps, seed, agent in (
        ("DDPG_A^B", CROSS_TEST_SAMPLES, 0, copy.deepcopy(train_on_a()[1])),  # reuses A's training
        ("DDPG_B^B", 30, 0, None),  # trained directly on B (full session)
        ("DDPG_cold^B", CROSS_TEST_SAMPLES, 1, None),  # cold, same budget as the cross test
    ):
        res, _ = ddpg_tune(Objective(workload_model(NAME), CLUSTER_B, seed=seed), space_b, stats_b,
                           default_config(NAME, CLUSTER_B), seed=seed, max_steps=steps, agent=agent)
        best = f"{res.best_runtime_sec / 60:.1f}"
        t.add(agent=label, **{"samples on B": str(steps), "best runtime on B (min)": best})
    return t
