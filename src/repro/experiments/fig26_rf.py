"""Figure 26 (numbers): Gaussian Process vs Random Forest surrogates
(§6.5) for BO and GBO on K-means and SVM.

Each surrogate × guidance combination is trained to the top-5-percentile
target by the session runner's ``"top5"`` sessions
(:func:`~repro.experiments.sessions.session`); the paper's conclusion —
neither surrogate strictly dominates, but the GBO guidance helps under
both — is what the numbers should show. The GP rows are Figure 16's
sessions, read from the runner's cache.
"""
from __future__ import annotations

import numpy as np

from .fig16_overheads import SEEDS
from .sessions import session
from .tables import Table


def run() -> Table:
    t = Table(
        title="Figure 26 (numbers) — GP vs RF surrogates, plain vs guided",
        columns=["application", "surrogate", "BO iters (mean)", "GBO iters (mean)"],
        notes=[f"Mean over {len(SEEDS)} seeds; iterations include the 4 LHS bootstraps."],
    )
    for name in ("K-means", "SVM"):
        for surrogate, suffix in (("GP", ""), ("RF", "-RF")):
            bo = [session(name, "A", "BO" + suffix, s, "top5")[0].iterations for s in SEEDS]
            gbo = [session(name, "A", "GBO" + suffix, s, "top5")[0].iterations for s in SEEDS]
            t.add(name, surrogate, f"{float(np.mean(bo)):.0f}", f"{float(np.mean(gbo)):.0f}")
    return t
