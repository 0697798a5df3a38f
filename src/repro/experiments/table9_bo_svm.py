"""Table 9: log of one BO run for SVM (§6.2).

Reproduces the sample-by-sample trace: the four LHS bootstrap samples
(sample # 0) followed by the adaptive probes, with the runtime of each.
The paper uses this table to show BO pinning Cache Capacity near the
bootstrap's best region (a local minimum — SVM wants ≥ 0.5 to fit its
cached data). The run is Table 8's SVM BO session.
"""
from __future__ import annotations

from .table8_recommendations import sessions
from .tables import CACHE_GRID_KNOBS, Table, config_str

#: Paper Table 9 rows: (sample #, n, p, cache, NR, runtime minutes).
PAPER = [
    (0, 1, 4, 0.6, 7, 8.5),
    (0, 2, 1, 0.4, 3, 9.3),
    (0, 3, 2, 0.2, 5, 7.1),
    (0, 4, 2, 0.8, 1, 13.0),
    (1, 4, 2, 0.2, 5, 7.3),
    (2, 2, 3, 0.2, 7, 7.5),
    (3, 3, 2, 0.2, 3, 6.6),
    (4, 3, 2, 0.2, 1, 6.5),
    (5, 2, 3, 0.2, 1, 6.7),
    (6, 2, 4, 0.2, 1, 7.0),
]


def run() -> Table:
    t = Table(
        title="Table 9 — Log of a BO run for SVM",
        columns=["sample #", "config (n, p, cache, NR)", "runtime (min)",
                 "paper config", "paper runtime (min)"],
        notes=["Sample # 0 rows are the LHS bootstrap (paper Table 7)."],
    )
    for i, s in enumerate(sessions("SVM")["BO"].samples):
        num = 0 if i < 4 else i - 3
        if i < len(PAPER):
            pn, a, b, c, d, prt = PAPER[i]
            paper_cfg, paper_rt = f"({a}, {b}, {c:g}, {d})", f"{prt:.1f}"
        else:
            paper_cfg, paper_rt = "—", "—"
        t.add(
            **{
                "sample #": str(num),
                "config (n, p, cache, NR)": config_str(s.config, CACHE_GRID_KNOBS),
                "runtime (min)": f"{s.runtime_sec / 60:.1f}" + (" (aborted)" if s.aborted else ""),
                "paper config": paper_cfg,
                "paper runtime (min)": paper_rt,
            }
        )
    return t
