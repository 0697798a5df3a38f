"""Figure 26 (numbers): Gaussian Process vs Random Forest surrogates
(§6.5) for BO and GBO on K-means and SVM.

Each surrogate × guidance combination is trained until it reaches the
top-5-percentile target by Figure 16's session runner
(:func:`~repro.experiments.fig16_overheads.train_to_top5`); the paper's
conclusion — neither surrogate strictly dominates, but the GBO guidance
helps under both — is what the numbers should show. The GP rows are
Figure 16's sessions, read from its cache.
"""
from __future__ import annotations

import numpy as np

from .fig16_overheads import SEEDS, train_to_top5
from .tables import Table


def run() -> Table:
    t = Table(
        title="Figure 26 (numbers) — GP vs RF surrogates, plain vs guided",
        columns=["application", "surrogate", "BO iters (mean)", "GBO iters (mean)"],
        notes=[f"Mean over {len(SEEDS)} seeds; iterations include the 4 LHS bootstraps."],
    )
    for name in ("K-means", "SVM"):
        for surrogate, suffix in (("GP", ""), ("RF", "-RF")):
            bo = [train_to_top5(name, "BO" + suffix, s)[1] for s in SEEDS]
            gbo = [train_to_top5(name, "GBO" + suffix, s)[1] for s in SEEDS]
            t.add(
                application=name,
                surrogate=surrogate,
                **{
                    "BO iters (mean)": f"{float(np.mean(bo)):.0f}",
                    "GBO iters (mean)": f"{float(np.mean(gbo)):.0f}",
                },
            )
    return t
