"""Print experiment tables: ``python -m repro.experiments <name ...|all>``.

Each name is an experiment module (``table4_defaults``, ``fig16_overheads``,
...); ``all`` runs every one in report order, which regenerates the
numbers recorded in EXPERIMENTS.md.
"""
import importlib
import os
import sys

# One BLAS thread for steady Table 10 times; set before any module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: Experiment module names, in report order.
NAMES = (
    "table4_defaults",
    "table5_manual_pagerank",
    "table6_stats",
    "table7_lhs",
    "table8_recommendations",
    "table9_bo_svm",
    "table10_overheads",
    "fig16_overheads",
    "fig17_perf",
    "tpch_relm",
    "fig26_rf",
    "fig27_ddpg_generality",
)


def main(args: list[str]) -> None:
    if not args or not set(args) <= {*NAMES, "all"}:
        sys.exit(f"usage: python -m repro.experiments <name ...|all>\nnames: {' '.join(NAMES)}")
    names = [n for a in args for n in (NAMES if a == "all" else [a])]
    for i, name in enumerate(names):
        if i:
            print()
        importlib.import_module(f"{__package__}.{name}").run().print()


if __name__ == "__main__":
    main(sys.argv[1:])
