"""Small table container + markdown rendering for experiment outputs."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Table:
    """An ordered table of result rows (all values already stringified
    or plain scalars) with a title and optional notes."""

    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row) -> None:
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append(row)

    def to_markdown(self) -> str:
        out = [f"### {self.title}", ""]
        out.append("| " + " | ".join(self.columns) + " |")
        out.append("|" + "---|" * len(self.columns))
        for r in self.rows:
            out.append("| " + " | ".join(_fmt(r[c]) for c in self.columns) + " |")
        for n in self.notes:
            out.append("")
            out.append(f"*{n}*")
        return "\n".join(out)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.to_markdown())


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


#: The (n, p, cache, NR) knobs of Tables 7 and 9, whose grid varies Cache
#: Capacity and pins Shuffle Capacity.
CACHE_GRID_KNOBS = ("containers_per_node", "task_concurrency", "cache_capacity", "new_ratio")


def config_str(cfg, knobs=None) -> str:
    """Compact knob-tuple rendering used across tables: (n, p, cache,
    shuffle, NR), or only the ``as_row()`` columns named in ``knobs``."""
    r = cfg.as_row()
    return "(" + ", ".join(f"{r[k]:g}" for k in knobs or r) + ")"
