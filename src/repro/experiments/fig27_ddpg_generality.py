"""Figure 27 (numbers): DDPG generality across environments (§6.6).

Trains a DDPG agent on SVM @ Cluster A, then lets it tune SVM @
Cluster B with only 5 test samples (DDPG_A^B), compared against an
agent trained only on Cluster B (DDPG_B^B) and against a same-budget
cold agent. The paper's finding: reward-feedback training transfers, so
the pre-trained agent adapts quickly to the hardware change.
"""
from __future__ import annotations

from ..cluster import CLUSTER_A, CLUSTER_B
from ..tuners.base import ConfigSpace, Objective
from ..tuners.ddpg import ddpg_tune
from ..workloads import dominant_pool, workload_model
from .common import default_config, profiled_stats
from .tables import Table

CROSS_TEST_SAMPLES = 5


def run() -> Table:
    name = "SVM"
    model = workload_model(name)
    dp = dominant_pool(name)
    stats_a = profiled_stats(name, "A", 0)
    stats_b = profiled_stats(name, "B", 0)
    dflt_b = default_config(name, CLUSTER_B)

    # Train on A (full session), reuse on B with 5 samples.
    space_a = ConfigSpace(CLUSTER_A, dp)
    _, agent = ddpg_tune(
        Objective(model, CLUSTER_A), space_a, stats_a,
        default_config(name, CLUSTER_A), max_steps=30,
    )
    space_b = ConfigSpace(CLUSTER_B, dp)
    cross, _ = ddpg_tune(
        Objective(model, CLUSTER_B), space_b, stats_b, dflt_b,
        max_steps=CROSS_TEST_SAMPLES, agent=agent,
    )
    # Trained directly on B (full session).
    native, _ = ddpg_tune(
        Objective(model, CLUSTER_B), space_b, stats_b, dflt_b, max_steps=30,
    )
    # Cold agent, same 5-sample budget as the cross test.
    cold, _ = ddpg_tune(
        Objective(model, CLUSTER_B, seed=1), space_b, stats_b, dflt_b,
        seed=1, max_steps=CROSS_TEST_SAMPLES,
    )

    t = Table(
        title="Figure 27 (numbers) — DDPG generality (SVM, Cluster A → B)",
        columns=["agent", "samples on B", "best runtime on B (min)"],
        notes=[
            "Paper shape: the A-pretrained agent with 5 samples lands close "
            "to the natively-trained agent; a cold agent with the same "
            "budget does not.",
        ],
    )
    for label, res, n in (("DDPG_A^B", cross, CROSS_TEST_SAMPLES), ("DDPG_B^B", native, 30),
                          ("DDPG_cold^B", cold, CROSS_TEST_SAMPLES)):
        t.add(
            agent=label,
            **{"samples on B": str(n), "best runtime on B (min)": f"{res.best_runtime_sec / 60:.1f}"},
        )
    return t
