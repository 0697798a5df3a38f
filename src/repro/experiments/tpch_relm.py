"""Figure 21 (numbers): TPC-H on Cluster B, defaults vs RelM (§6.4).

The paper runs the TPC-H workload with MaxResourceAllocation (66 min
total) and with RelM's recommendation from that run's profile (40 min, a
~40% saving). Same protocol here, over the simulated Cluster B with the
hand-set TPC-H workload model (22 query stages at SF-50). Both runs are
the session runner's
(:func:`~repro.experiments.sessions.session`).
"""
from __future__ import annotations

from ..cluster import CLUSTER_B
from ..profiler import profile_with_full_gc
from ..workloads import workload_model
from .sessions import session
from .tables import Table, config_str, minutes

PAPER_DEFAULT_MIN = 66.0
PAPER_RELM_MIN = 40.0


def run() -> Table:
    base, tuned = (session("TPC-H", "B", policy, 0, "cherrypick")[0].best for policy in ("Default", "RelM"))
    # RelM's session does not record its profiling runs (ROADMAP item 4).
    _, attempts = profile_with_full_gc(workload_model("TPC-H"), base.config, CLUSTER_B)

    t = Table(
        title="Figure 21 (numbers) — TPC-H on Cluster B: defaults vs RelM",
        columns=["policy", "config (n, p, cache, shuffle, NR)",
                 "paper total (min)", "our total (min)", "saving"],
        notes=[f"RelM used {attempts} profiling run(s)."],
    )
    t.add("MaxResourceAllocation", config_str(base.config), f"{PAPER_DEFAULT_MIN:.0f}", minutes(base, 0), "—")
    t.add("RelM", config_str(tuned.config), f"{PAPER_RELM_MIN:.0f} (40% saving)", minutes(tuned, 0),
          f"{100 * (1 - tuned.runtime_sec / base.runtime_sec):.0f}%")
    return t
