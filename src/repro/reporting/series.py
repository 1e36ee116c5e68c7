"""Figure-series container.

Each figure benchmark produces one :class:`FigureSeries`: a shared x-axis
plus one named y-series per design.  The text rendering is what the bench
prints (the "same series the paper plots"); the raw arrays remain
available for any downstream plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..units import eng


@dataclass
class FigureSeries:
    """One figure's worth of series.

    Attributes:
        title: Figure caption.
        x_label: X-axis label (include units).
        y_label: Y-axis label (include units).
        x: Shared x values.
        y_unit: SI unit string used when engineering-formatting y values
            (empty string prints plain numbers).
    """

    title: str
    x_label: str
    y_label: str
    x: list[float]
    y_unit: str = ""
    _series: dict[str, list[float]] = field(default_factory=dict, init=False)

    def add_series(self, name: str, y: list[float]) -> None:
        """Attach one named series; length must match ``x``."""
        if len(y) != len(self.x):
            raise ReproError(
                f"series {name!r} has {len(y)} points but x has {len(self.x)}"
            )
        if name in self._series:
            raise ReproError(f"duplicate series name {name!r}")
        self._series[name] = list(y)

    @property
    def series_names(self) -> list[str]:
        """Names in insertion order."""
        return list(self._series)

    def series(self, name: str) -> list[float]:
        """One series' y values."""
        if name not in self._series:
            raise ReproError(f"no series named {name!r}")
        return list(self._series[name])

    def _format(self, value: float) -> str:
        if self.y_unit:
            return eng(value, self.y_unit)
        return f"{value:.4g}"

    def to_text(self) -> str:
        """Aligned text rendering: one row per x, one column per series."""
        if not self._series:
            raise ReproError("figure has no series")
        headers = [self.x_label] + self.series_names
        rows = []
        for i, xv in enumerate(self.x):
            row = [f"{xv:g}"] + [self._format(ys[i]) for ys in self._series.values()]
            rows.append(row)
        widths = [len(h) for h in headers]
        for row in rows:
            for j, cell in enumerate(row):
                widths[j] = max(widths[j], len(cell))
        lines = [self.title, f"(y: {self.y_label})"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()
