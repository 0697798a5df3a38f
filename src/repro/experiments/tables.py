"""Small table container + markdown rendering for experiment outputs."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Table:
    """An ordered table of rows, each mapping the columns to its cells
    (strings or plain scalars), with a title and optional notes."""

    title: str
    columns: list[str]
    rows: list[dict] = field(init=False, default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *cells) -> None:
        """Append a row: one cell per column, in column order."""
        if len(cells) != len(self.columns):
            raise ValueError(f"row has {len(cells)} cells for {len(self.columns)} columns")
        self.rows.append(dict(zip(self.columns, cells)))

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


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


#: The (n, p, cache, NR) knobs of Tables 7 and 9, whose grid varies Cache
#: Capacity and pins Shuffle Capacity.
CACHE_GRID_KNOBS = ("containers_per_node", "task_concurrency", "cache_capacity", "new_ratio")


def knob_tuple(values) -> str:
    """A knob tuple as the tables print it: ``(2, 1, 0.4, 0.1, 3)``."""
    return "(" + ", ".join(f"{v:g}" for v in values) + ")"


def config_str(cfg, knobs=None) -> str:
    """A config's knob tuple: (n, p, cache, shuffle, NR), or only the
    ``as_row()`` columns named in ``knobs``."""
    r = cfg.as_row()
    return knob_tuple(r[k] for k in knobs or r)


def minutes(run, digits=1) -> str:
    """A run's runtime cell: minutes, marked ``(aborted)`` when Spark
    gave up on the run."""
    return f"{run.runtime_min:.{digits}f}" + (" (aborted)" if run.aborted else "")
