"""Plain-text table rendering for experiment output.

The experiment harness (``repro experiment``, ``repro experiments``,
``repro summary``) renders the paper's tables and figure series as
monospace tables; this module holds the one formatter they all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import UnknownNameError


def format_cell(value: Any) -> str:
    """Render one cell: floats get 4 significant digits, bools ✓/✗."""
    if isinstance(value, (bool, np.bool_)):
        return "Y" if value else "x"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], indent: str = ""
) -> str:
    """Monospace table with a header rule, column-width aligned."""
    rendered = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        indent + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        indent + "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append(
            indent + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


@dataclass
class ExperimentTable:
    """One regenerated table/figure: id, headers, data rows, and notes."""

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        self.rows.append(tuple(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_text(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.append(format_table(self.headers, self.rows))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def _index(self, name: str) -> int:
        if name not in self.headers:
            raise UnknownNameError(
                f"unknown column {name!r}; columns: {', '.join(self.headers)}"
            )
        return self.headers.index(name)

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        index = self._index(name)
        return [row[index] for row in self.rows]

    def render_series(
        self, label_column: str, value_column: str, width: int = 40
    ) -> str:
        """ASCII bar view of one numeric column — a terminal 'figure'.

        Bars are scaled to the column maximum; non-numeric cells are
        skipped.  Complements :meth:`to_text` when a series' *shape*
        (monotone decay, flattening) is the point.
        """
        label_index = self._index(label_column)
        value_index = self._index(value_column)
        pairs = [
            (str(row[label_index]), float(row[value_index]))
            for row in self.rows
            if isinstance(row[value_index], (int, float))
            and not isinstance(row[value_index], bool)
        ]
        if not pairs:
            return "(no numeric values to render)"
        peak = max(abs(v) for _, v in pairs) or 1.0
        label_width = max(len(label) for label, _ in pairs)
        lines = [f"-- {value_column} --"]
        for label, value in pairs:
            bar = "#" * max(0, round(abs(value) / peak * width))
            lines.append(f"{label:>{label_width}} |{bar} {format_cell(value)}")
        return "\n".join(lines)
