"""Table 9: log of one BO run for SVM (§6.2).

Reproduces the sample-by-sample trace: the four LHS bootstrap samples
(sample # 0) followed by the adaptive probes, with the runtime of each.
The paper uses this table to show BO pinning Cache Capacity near the
bootstrap's best region (a local minimum — SVM wants ≥ 0.5 to fit its
cached data). The run is Table 8's SVM BO session, read from the
session runner (:func:`~repro.experiments.sessions.session`).
"""
from __future__ import annotations

from .sessions import session
from .tables import CACHE_GRID_KNOBS, Table, config_str, knob_tuple, minutes

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
    for i, s in enumerate(session("SVM", "A", "BO", 0, "cherrypick")[0].samples):
        if i < len(PAPER):
            paper_cfg, paper_rt = knob_tuple(PAPER[i][1:5]), f"{PAPER[i][5]:.1f}"
        else:
            paper_cfg, paper_rt = "—", "—"
        t.add(str(max(0, i - 3)), config_str(s.config, CACHE_GRID_KNOBS), minutes(s), paper_cfg, paper_rt)
    return t
