"""Generic parameter-sweep harness.

Every figure benchmark is structurally a sweep: vary one knob, evaluate a
set of metrics per design, collect rows.  :class:`Sweep` standardizes
that shape so benches stay declarative and their outputs are uniformly
tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import AnalysisError

MetricFn = Callable[[Any], dict[str, float]]


@dataclass(frozen=True)
class SweepResult:
    """Collected sweep rows.

    Attributes:
        knob: Name of the swept parameter.
        rows: One dict per evaluated point: the knob value plus every
            metric the evaluator returned.
    """

    knob: str
    rows: tuple[dict[str, Any], ...]

    def column(self, name: str) -> list[Any]:
        """Extract one column across all rows.

        Raises:
            AnalysisError: if any row lacks the column.
        """
        out = []
        for row in self.rows:
            if name not in row:
                raise AnalysisError(f"sweep rows have no column {name!r}")
            out.append(row[name])
        return out

    def series(self, y: str) -> tuple[list[Any], list[Any]]:
        """``(x, y)`` pair for plotting/printing."""
        return self.column(self.knob), self.column(y)


@dataclass
class Sweep:
    """A declarative one-knob sweep.

    Attributes:
        knob: Display name of the parameter being swept.
        values: The values to evaluate.
        evaluate: Maps one knob value to a metrics dict.
    """

    knob: str
    values: Iterable[Any]
    evaluate: MetricFn

    def run(self) -> SweepResult:
        """Evaluate every point in order and return the collected rows.

        Raises:
            AnalysisError: naming the knob value whose evaluator raised,
                or a knob value the evaluator echoed back changed.
        """
        rows = []
        for value in self.values:
            try:
                metrics = self.evaluate(value)
            except Exception as exc:
                raise AnalysisError(
                    f"sweep evaluator failed at {self.knob}={value!r}: {exc}"
                ) from exc
            if self.knob in metrics and metrics[self.knob] != value:
                raise AnalysisError(
                    f"evaluator returned conflicting value for knob {self.knob!r}"
                )
            row = {self.knob: value}
            row.update(metrics)
            rows.append(row)
        return SweepResult(knob=self.knob, rows=tuple(rows))
