"""Shared infrastructure for the per-figure/per-table experiment harnesses.

Every experiment module exposes a ``run(...)`` function returning an
:class:`ExperimentResult`: a named collection of rows (for tables) or series
(for figures) plus free-form notes.  Each module registers that function as
an :class:`repro.api.Experiment`, so it runs from the command line as::

    python -m repro.experiments run table-1

Results are plain data (lists/dicts of floats), so EXPERIMENTS.md and the
benchmark assertions consume them directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from ..api.experiment import _format_value

__all__ = ["ExperimentResult", "format_table", "default_cache_dir"]

#: Environment override for where experiment sweeps cache their results.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The result-cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache/``."""
    return os.environ.get(CACHE_DIR_ENV, ".repro-cache")


@dataclass
class ExperimentResult:
    """Structured output of one experiment harness."""

    experiment_id: str
    title: str
    data: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def summary(self) -> str:
        """Human-readable rendering of the experiment output."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for key, value in self.data.items():
            if isinstance(value, str):
                lines.append(f"{key}:\n{value}")
            elif isinstance(value, Mapping):
                lines.append(f"{key}:")
                for inner_key, inner_value in value.items():
                    lines.append(f"  {inner_key}: {_format_value(inner_value)}")
            else:
                lines.append(f"{key}: {_format_value(value)}")
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)


def format_table(
    row_labels: Sequence[str], col_labels: Sequence[str], values: Sequence[Sequence[float]],
    cell_format: str = "{:.0f}%",
) -> str:
    """Render a small 2-D table as text in the paper's row/column layout."""
    header = " | ".join([" " * 12] + [f"{label:>8}" for label in col_labels])
    lines = [header, "-" * len(header)]
    for label, row in zip(row_labels, values):
        cells = " | ".join(f"{cell_format.format(v):>8}" for v in row)
        lines.append(f"{label:>12} | {cells}")
    return "\n".join(lines)
