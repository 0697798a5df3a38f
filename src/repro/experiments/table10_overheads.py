"""Table 10: per-iteration algorithm overheads (§6.3).

Measures, on this host, one iteration's worth of each component; the
learned policies' cells are medians over the iterations of Table 8's
SVM sessions (BO, GBO) and Figure 27's Cluster A session (DDPG), read
from the session runner (:func:`~repro.experiments.sessions.session`):

* **statistics collection** — Statistics Generator over a profile
  (DDPG/GBO/RelM consume internal metrics; plain BO only logs runtime);
* **model fitting** — GP update (BO), GP update over the q-augmented
  features (GBO), one step's actor–critic updates (DDPG), the Initializer
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
from ..config import config_rows
from ..core import relm_recommend
from ..core.relm import arbitrate, initialize
from ..profiler import generate_stats
from ..simcluster.profile_gen import profile_app
from ..tuners.base import ConfigSpace
from ..tuners.gbo import gbo_features
from ..workloads import dominant_pool, workload_model
from .common import default_config, profiled_stats
from .fig27_ddpg_generality import TRAIN_STEPS
from .sessions import session
from .tables import Table

#: Paper Table 10 (milliseconds / kilobytes).
PAPER = {
    "DDPG": {"stats": "5ms", "fit": "100ms", "probe": "2ms", "size": "3Kb"},
    "BO": {"stats": "1ms", "fit": "140ms", "probe": "800ms", "size": "5Kb"},
    "GBO": {"stats": "5ms", "fit": "180ms", "probe": "1500ms", "size": "6Kb"},
    "RelM": {"stats": "5ms", "fit": "0.1ms", "probe": "0.02ms", "size": "-"},
}

def _time(fn) -> float:
    """Median wall-clock of ``fn`` over 5 calls, in ms."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return float(np.median(times))


def measure() -> dict[str, dict[str, str]]:
    """Measure each component for each policy on SVM's tuning setup."""
    name = "SVM"
    space = ConfigSpace(CLUSTER_A, dominant_pool(name))
    stats = profiled_stats(name, "A", 0)

    # Stats collection: the Statistics Generator over a fresh profile.
    profile = profile_app(workload_model(name), default_config(name), CLUSTER_A)
    stats_ms = f"{_time(lambda: generate_stats(profile)):#.3g}ms"

    ddpg, agent = session(name, "A", "DDPG", 0, TRAIN_STEPS)
    (bo, _), (gbo, _) = (session(name, "A", p, 0, "cherrypick") for p in ("BO", "GBO"))

    def training_set(res, feature):
        return feature(config_rows([s.config for s in res.samples])), np.array([s.objective for s in res.samples])

    sessions = {  # policy: (session, stats cell, stored model)
        "DDPG": (ddpg, stats_ms, (agent.actor.w, agent.actor.b, agent.critic.w, agent.critic.b)),
        "BO": (bo, "n/a", training_set(bo, space.encode)),
        "GBO": (gbo, stats_ms, training_set(gbo, gbo_features(space, stats, CLUSTER_A))),
    }
    out = {policy: {
        "stats": stats_cell,
        "fit": f"{1000 * np.median(res.fit_times):#.3g}ms",
        "probe": f"{1000 * np.median(res.probe_times):#.3g}ms",
        "size": f"{len(pickle.dumps(model)) / 1024:.0f}Kb",
    } for policy, (res, stats_cell, model) in sessions.items()}

    out["RelM"] = {
        "stats": stats_ms,
        "fit": f"{_time(lambda: arbitrate(initialize(stats, 2, CLUSTER_A), stats)):#.3g}ms",
        "probe": f"{_time(lambda: relm_recommend(stats, CLUSTER_A)):#.3g}ms",
        "size": "-",
    }
    return out


def run() -> Table:
    measured = measure()
    t = Table(
        title="Table 10 — Per-iteration tuning-algorithm overheads (SVM)",
        columns=["component"] + [f"{p} (paper / ours)" for p in PAPER],
        notes=[
            "Measured on this host; the paper's absolute numbers come from its own machine — compare ratios.",
            "DDPG reads Figure 27's 30-step Cluster A session: Table 8's 10-step DDPG session never "
            "fills a training batch, so it has no fit to time.",
        ],
    )
    for comp, label in (("stats", "Statistics Collection"), ("fit", "Model Fitting"),
                        ("probe", "Model Probing"), ("size", "Model Size")):
        t.add(label, *(f"{PAPER[p][comp]} / {measured[p][comp]}" for p in PAPER))
    return t
