"""Experiment harnesses — one module per evaluation table/figure.

Each module exposes ``run(...)`` returning a :class:`~repro.experiments.tables.Table`
whose rows reproduce the corresponding paper artifact, with the paper's
published values carried alongside ours where the paper prints concrete
numbers. ``python -m repro.experiments <name ...|all>`` prints them.
"""
from .tables import Table

__all__ = ["Table"]
