"""Plain-text table emitter used by the benchmark harness.

Benchmarks print the same rows the paper's tables report; this keeps the
formatting in one place, rendered as aligned ASCII.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ReproError


@dataclass
class Table:
    """A simple column-aligned table.

    Attributes:
        title: Optional heading printed above the table.
        columns: Column headers.
    """

    title: str
    columns: list[str]
    _rows: list[list[str]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ReproError("table needs at least one column")

    def add_row(self, *cells: Any) -> None:
        """Append one row; cell count must match the header."""
        if len(cells) != len(self.columns):
            raise ReproError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self._rows.append([str(c) for c in cells])

    @property
    def n_rows(self) -> int:
        """Number of data rows."""
        return len(self._rows)

    def _widths(self) -> list[int]:
        widths = [len(h) for h in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def to_ascii(self) -> str:
        """Render as aligned plain text."""
        widths = self._widths()
        sep = "  "
        lines = []
        if self.title:
            lines.append(self.title)
        header = sep.join(h.ljust(w) for h, w in zip(self.columns, widths))
        lines.append(header)
        lines.append(sep.join("-" * w for w in widths))
        for row in self._rows:
            lines.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_ascii()
