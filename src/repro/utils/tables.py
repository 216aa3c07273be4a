"""Plain-text table rendering for the evaluation harness and benches.

The paper reports results as tables (Table 1) and log-log plot series
(Figures 1-4).  With no plotting stack available we render both as aligned
monospace text, which is also what lands in ``benchmarks/out/`` and
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ValidationError

__all__ = ["TextTable", "format_float"]


def format_float(value: float, digits: int = 4) -> str:
    """Format a float compactly: fixed-point when sane, scientific otherwise."""
    if value != value:  # NaN
        return "nan"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if 1e-4 <= magnitude < 1e7:
        text = f"{value:.{digits}f}"
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text
    return f"{value:.{digits}e}"


class TextTable:
    """Accumulate rows and render an aligned monospace table.

    >>> table = TextTable(["network", "a", "b", "c"])
    >>> table.add_row(["CA-GrQC", 1.0, 0.4674, 0.279])
    >>> print(table.render())
    network | a | b      | c
    --------+---+--------+------
    CA-GrQC | 1 | 0.4674 | 0.279
    """

    def __init__(self, headers: Sequence[str], *, title: str | None = None) -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, cells: Iterable[object]) -> None:
        """Append one row; floats are formatted, everything else is str()ed."""
        formatted = []
        for cell in cells:
            if isinstance(cell, bool):
                formatted.append(str(cell))
            elif isinstance(cell, float):
                formatted.append(format_float(cell))
            else:
                formatted.append(str(cell))
        if len(formatted) != len(self.headers):
            raise ValidationError(
                f"row has {len(formatted)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(formatted)

    def render(self) -> str:
        """Render the table (plus optional title) as a string."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * len(self.title))
        header = " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header.rstrip())
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            line = " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            lines.append(line.rstrip())
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()
