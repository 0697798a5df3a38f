"""Table 6: statistics derived from an application profile (§4.1).

The paper's example column is the PageRank application profiled under
the default setup; the Statistics Generator reproduces each entry.
"""
from __future__ import annotations

from .common import profiled_stats
from .tables import Table

#: The paper's example column for PageRank.
PAPER = {
    "N": "1",
    "M_h": "4404MB",
    "CPU_avg": "35%",
    "Disk_avg": "2%",
    "M_i": "115MB",
    "M_c": "2300MB",
    "M_s": "0MB",
    "M_u": "770MB",
    "P": "2",
    "H": "0.30",
    "S": "0.00",
}

DESCRIPTIONS = {
    "N": "Containers per Node",
    "M_h": "Heap size",
    "CPU_avg": "Average CPU usage",
    "Disk_avg": "Average disk usage",
    "M_i": "Code Overhead 90%ile value",
    "M_c": "Cache Storage 90%ile value",
    "M_s": "Task Shuffle 90%ile value",
    "M_u": "Task Unmanaged 90%ile value",
    "P": "Task Concurrency",
    "H": "Cache Hit Ratio",
    "S": "Data Spillage Fraction",
}


def run() -> Table:
    stats = profiled_stats("PageRank", "A", 0)
    ours = dict(stats.as_table6_rows())
    t = Table(
        title="Table 6 — Statistics derived from a PageRank profile",
        columns=["notation", "description", "paper", "ours"],
    )
    for k, desc in DESCRIPTIONS.items():
        t.add(k, desc, PAPER[k], ours[k])
    return t
