"""Table 10: per-iteration algorithm overheads (§6.3).

Measures, on this host, one iteration's worth of each component:

* **statistics collection** — Statistics Generator over a profile
  (DDPG/GBO/RelM consume internal metrics; plain BO only logs runtime);
* **model fitting** — GP update (BO), GP update over the q-augmented
  features (GBO), one actor–critic training step (DDPG), the Initializer
  + Arbitrator evaluation (RelM);
* **model probing** — building the candidate sweep's features and EI
  over them (BO/GBO, timed alike), an actor forward pass (DDPG), the
  full container-enumeration loop (RelM);
* **model size** — pickled state a policy would persist for re-use
  (§6.3: DDPG stores network weights, BO stores its training data).
"""
from __future__ import annotations

import pickle
import time

import numpy as np

from ..cluster import CLUSTER_A
from ..core import relm_recommend
from ..core.relm import arbitrate, initialize
from ..profiler import generate_stats
from ..simcluster.profile_gen import profile_app
from ..tuners.base import ConfigSpace, Objective
from ..tuners.ddpg import DDPGAgent, state_vector
from ..tuners.gbo import gbo_features
from ..tuners.gp import GaussianProcess, expected_improvement
from ..workloads import dominant_pool, workload_model
from .common import default_config, profiled_stats
from .tables import Table

#: Paper Table 10 (milliseconds / kilobytes).
PAPER = {
    "DDPG": {"stats": "5ms", "fit": "100ms", "probe": "2ms", "size": "3Kb"},
    "BO": {"stats": "1ms", "fit": "140ms", "probe": "800ms", "size": "5Kb"},
    "GBO": {"stats": "5ms", "fit": "180ms", "probe": "1500ms", "size": "6Kb"},
    "RelM": {"stats": "5ms", "fit": "0.1ms", "probe": "0.02ms", "size": "-"},
}

#: Training-set size at a representative iteration (4 LHS + 10 adaptive).
N_TRAIN = 14
N_REPS = 5


def _time(fn, reps: int = N_REPS) -> float:
    """Median wall-clock of ``fn`` over ``reps`` calls, in ms."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return float(np.median(times))


def measure() -> dict[str, dict[str, str]]:
    """Measure each component for each policy on SVM's tuning setup."""
    name = "SVM"
    model = workload_model(name)
    space = ConfigSpace(CLUSTER_A, dominant_pool(name))
    stats = profiled_stats(name, "A", 0)
    rng = np.random.default_rng(0)

    # A representative training set.
    objective = Objective(model, CLUSTER_A)
    train = space.decode(rng.random((N_TRAIN, space.dim)))
    for cfg in space.configs(train):
        objective(cfg)
    y = np.log([s.objective for s in objective.history])
    cands = space.decode(rng.random((600, space.dim)))

    # Stats collection: the Statistics Generator over a fresh profile.
    profile = profile_app(model, default_config(name), CLUSTER_A)
    stats_ms = _time(lambda: generate_stats(profile))

    out: dict[str, dict[str, str]] = {}

    # --- DDPG.
    agent = DDPGAgent(space=space)
    st_vec = state_vector(objective.history[0], stats, CLUSTER_A)
    while len(agent.replay) < 2 * N_TRAIN:  # enough past the training batch size
        for s in objective.history:
            agent.replay.append(
                (st_vec, rng.uniform(-1, 1, space.dim), 0.1, state_vector(s, stats, CLUSTER_A))
            )
    out["DDPG"] = {
        "stats": f"{stats_ms:.2f}ms",
        "fit": f"{_time(lambda: agent.train_step(rng)):.2f}ms",
        "probe": f"{_time(lambda: agent.act(st_vec)):.3f}ms",
        "size": f"{len(pickle.dumps((agent.actor.w, agent.actor.b, agent.critic.w, agent.critic.b))) / 1024:.0f}Kb",
    }

    # --- BO and GBO (GBO adds the q-feature dimensionality). Each probe
    # builds its candidates' features from their rows inside the timed
    # call, as the BO loop does every iteration.
    for policy, feature, stats_cell in (
        ("BO", space.encode, "n/a"),
        ("GBO", gbo_features(space, stats, CLUSTER_A), f"{stats_ms:.2f}ms"),
    ):
        x = feature(train)
        gp = GaussianProcess.fit(x, y)
        probe_ms = _time(
            lambda: expected_improvement(gp, feature(cands), float(y.min()))
        )
        out[policy] = {
            "stats": stats_cell,
            "fit": f"{_time(lambda: GaussianProcess.fit(x, y)):.2f}ms",
            "probe": f"{probe_ms:.2f}ms",
            "size": f"{len(pickle.dumps((x, y))) / 1024:.0f}Kb",
        }

    # --- RelM.
    out["RelM"] = {
        "stats": f"{stats_ms:.2f}ms",
        "fit": f"{_time(lambda: arbitrate(initialize(stats, 2, CLUSTER_A), stats)):.3f}ms",
        "probe": f"{_time(lambda: relm_recommend(stats, CLUSTER_A)):.3f}ms",
        "size": "-",
    }
    return out


def run() -> Table:
    measured = measure()
    t = Table(
        title="Table 10 — Per-iteration tuning-algorithm overheads (SVM)",
        columns=["component"] + [f"{p} (paper / ours)" for p in ("DDPG", "BO", "GBO", "RelM")],
        notes=["Measured on this host; the paper's absolute numbers come from its own machine — compare ratios."],
    )
    for comp, label in (("stats", "Statistics Collection"), ("fit", "Model Fitting"),
                        ("probe", "Model Probing"), ("size", "Model Size")):
        row = {"component": label}
        for p in ("DDPG", "BO", "GBO", "RelM"):
            row[f"{p} (paper / ours)"] = f"{PAPER[p][comp]} / {measured[p][comp]}"
        t.add(**row)
    return t
