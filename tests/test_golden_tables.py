"""Golden check: every deterministic experiment table matches EXPERIMENTS.md.

Each table is rendered afresh and compared line by line, blank lines
ignored, with its ``### <title>`` block under "## Generated tables".
Table 10 is left out: its rows are wall-clock times of this host.
"""
import importlib
from pathlib import Path

import pytest

from repro.experiments.__main__ import NAMES

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def recorded_tables() -> dict[str, list[str]]:
    """``### <title>`` -> its non-blank lines (title included)."""
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    generated = text.split("\n## Generated tables", 1)[1]
    blocks = {}
    for block in generated.split("\n### ")[1:]:
        lines = [line for line in f"### {block}".splitlines() if line.strip()]
        blocks[lines[0]] = lines
    return blocks


@pytest.mark.parametrize("name", [n for n in NAMES if n != "table10_overheads"])
def test_table_matches_experiments_md(name):
    table = importlib.import_module(f"repro.experiments.{name}").run()
    rendered = [line for line in table.to_markdown().splitlines() if line.strip()]
    recorded = recorded_tables()
    assert rendered[0] in recorded, f"{rendered[0]!r} has no block in EXPERIMENTS.md"
    assert rendered == recorded[rendered[0]]
