"""Figure 21 (numbers): TPC-H on Cluster B, defaults vs RelM (§6.4).

The paper runs the TPC-H workload with MaxResourceAllocation (66 min
total) and with RelM's recommendation from that run's profile (40 min, a
~40% saving). Same protocol here, over the simulated Cluster B with the
TPC-H workload model whose per-query behaviour is measured from the
real TPC-H-lite Spark suite.
"""
from __future__ import annotations

from ..cluster import CLUSTER_B
from ..config import max_resource_allocation
from ..core import relm_recommend
from ..profiler import generate_stats, profile_with_full_gc
from ..simcluster import simulate
from ..workloads import workload_model
from .tables import Table, config_str

PAPER_DEFAULT_MIN = 66.0
PAPER_RELM_MIN = 40.0


def run() -> Table:
    model = workload_model("TPC-H")
    dflt = max_resource_allocation(CLUSTER_B)
    base = simulate(model, dflt, CLUSTER_B)
    profile, attempts = profile_with_full_gc(model, dflt, CLUSTER_B)
    stats = generate_stats(profile)
    cfg, _, _ = relm_recommend(stats, CLUSTER_B)
    tuned = simulate(model, cfg, CLUSTER_B)

    t = Table(
        title="Figure 21 (numbers) — TPC-H on Cluster B: defaults vs RelM",
        columns=["policy", "config (n, p, cache, shuffle, NR)",
                 "paper total (min)", "our total (min)", "saving"],
        notes=[f"RelM used {attempts} profiling run(s)."],
    )
    t.add(
        policy="MaxResourceAllocation",
        **{
            "config (n, p, cache, shuffle, NR)": config_str(dflt),
            "paper total (min)": f"{PAPER_DEFAULT_MIN:.0f}",
            "our total (min)": f"{base.runtime_min:.0f}",
            "saving": "—",
        },
    )
    t.add(
        policy="RelM",
        **{
            "config (n, p, cache, shuffle, NR)": config_str(cfg),
            "paper total (min)": f"{PAPER_RELM_MIN:.0f} (40% saving)",
            "our total (min)": f"{tuned.runtime_min:.0f}",
            "saving": f"{100 * (1 - tuned.runtime_sec / base.runtime_sec):.0f}%",
        },
    )
    return t
