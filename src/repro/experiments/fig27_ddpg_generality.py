"""Figure 27 (numbers): DDPG generality across environments (§6.6).

Trains a DDPG agent on SVM @ Cluster A, then lets it tune SVM @
Cluster B with only 5 test samples (DDPG_A^B), compared against an
agent trained only on Cluster B (DDPG_B^B) and against a same-budget
cold agent. The paper's finding: reward-feedback training transfers, so
the pre-trained agent adapts quickly to the hardware change.

Every session but the cross test comes from the session runner
(:func:`~repro.experiments.sessions.session`); Table 10 reads the
Cluster A one. The cross test trains a copy of its agent further.
"""
from __future__ import annotations

import copy

from ..cluster import CLUSTER_B
from ..tuners.base import ConfigSpace, Objective
from ..tuners.ddpg import ddpg_tune
from ..workloads import dominant_pool, workload_model
from .common import default_config, profiled_stats
from .sessions import session
from .tables import Table, minutes

NAME = "SVM"
#: Steps of a full training session, on either cluster.
TRAIN_STEPS = 30
CROSS_TEST_SAMPLES = 5


def run() -> Table:
    t = Table(
        title="Figure 27 (numbers) — DDPG generality (SVM, Cluster A → B)",
        columns=["agent", "samples on B", "best runtime on B (min)"],
        notes=[
            "Paper shape: the A-pretrained agent with 5 samples lands close "
            "to the natively-trained agent; a cold agent with the same "
            "budget does not.",
        ],
    )
    cross, _ = ddpg_tune(  # reuses A's training
        Objective(workload_model(NAME), CLUSTER_B), ConfigSpace(CLUSTER_B, dominant_pool(NAME)),
        profiled_stats(NAME, "B", 0), default_config(NAME, CLUSTER_B), max_steps=CROSS_TEST_SAMPLES,
        agent=copy.deepcopy(session(NAME, "A", "DDPG", 0, TRAIN_STEPS)[1]),
    )
    for label, steps, res in (
        ("DDPG_A^B", CROSS_TEST_SAMPLES, cross),
        ("DDPG_B^B", TRAIN_STEPS, session(NAME, "B", "DDPG", 0, TRAIN_STEPS)[0]),  # trained directly on B
        ("DDPG_cold^B", CROSS_TEST_SAMPLES,  # cold, same budget as the cross test
         session(NAME, "B", "DDPG", 1, CROSS_TEST_SAMPLES)[0]),
    ):
        t.add(label, str(steps), minutes(res.best))
    return t
