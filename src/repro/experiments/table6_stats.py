"""Table 6: statistics derived from an application profile (§4.1).

The paper's example column is the PageRank application profiled under
the default setup; the Statistics Generator reproduces each entry.
"""
from __future__ import annotations

from .common import profiled_stats
from .tables import Table

#: (notation, description, the paper's PageRank value, the
#: :class:`~repro.profiler.ProfileStats` field, its format), in the
#: paper's order.
ROWS = (
    ("N", "Containers per Node", "1", "containers_per_node", "{}"),
    ("M_h", "Heap size", "4404MB", "heap_mb", "{:.0f}MB"),
    ("CPU_avg", "Average CPU usage", "35%", "cpu_avg_pct", "{:.0f}%"),
    ("Disk_avg", "Average disk usage", "2%", "disk_avg_pct", "{:.0f}%"),
    ("M_i", "Code Overhead 90%ile value", "115MB", "code_mb", "{:.0f}MB"),
    ("M_c", "Cache Storage 90%ile value", "2300MB", "cache_mb", "{:.0f}MB"),
    ("M_s", "Task Shuffle 90%ile value", "0MB", "shuffle_task_mb", "{:.0f}MB"),
    ("M_u", "Task Unmanaged 90%ile value", "770MB", "unmanaged_task_mb", "{:.0f}MB"),
    ("P", "Task Concurrency", "2", "task_concurrency", "{}"),
    ("H", "Cache Hit Ratio", "0.30", "cache_hit_ratio", "{:.2f}"),
    ("S", "Data Spillage Fraction", "0.00", "spill_fraction", "{:.2f}"),
)


def run() -> Table:
    stats = profiled_stats("PageRank", "A", 0)
    t = Table(
        title="Table 6 — Statistics derived from a PageRank profile",
        columns=["notation", "description", "paper", "ours"],
    )
    for notation, desc, paper, field, fmt in ROWS:
        t.add(notation, desc, paper, fmt.format(getattr(stats, field)))
    return t
