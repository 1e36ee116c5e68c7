"""One-at-a-time parameter sensitivity (tornado analysis).

Answers the design-review question "which model parameter is my search
energy / sense margin actually riding on?" by perturbing each device and
circuit parameter by a fixed relative step, re-evaluating a metric, and
ranking the resulting swings.  The ablation benchmark uses it to show the
design conclusions are not an artifact of one lucky constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..errors import AnalysisError
from ..tcam.array import ArrayGeometry, TCAMArray
from ..tcam.cells.fefet2t import FeFET2TCell, FeFET2TCellParams
from .throughput import characterize

Metric = Callable[[TCAMArray], float]


@dataclass(frozen=True)
class SensitivityEntry:
    """Sensitivity of the metric to one parameter.

    Attributes:
        parameter: Dotted parameter name (e.g. ``fefet.memory_window``).
        low: Metric with the parameter decreased by the step.
        nominal: Metric at the nominal parameter value.
        high: Metric with the parameter increased by the step.
        swing_rel: ``(high - low) / nominal`` -- signed relative swing.
    """

    parameter: str
    low: float
    nominal: float
    high: float

    @property
    def swing_rel(self) -> float:
        """Signed relative swing over the +-step interval."""
        if self.nominal == 0.0:
            raise AnalysisError(f"{self.parameter}: zero nominal metric")
        return (self.high - self.low) / self.nominal


#: Relative perturbation of each parameter, applied to each side.
STEP_REL = 0.2

# (label, fefet-params attribute) pairs perturbed by the tornado.
_FEFET_KNOBS = (
    ("fefet.memory_window", "memory_window"),
    ("fefet.kp", "kp"),
    ("fefet.c_junction_per_width", "c_junction_per_width"),
    ("fefet.c_gate_per_area", "c_gate_per_area"),
    ("fefet.width", "width"),
)


def _build_array(cell_params: FeFET2TCellParams, geometry: ArrayGeometry) -> TCAMArray:
    return TCAMArray(FeFET2TCell(cell_params), geometry)


def default_energy_metric(geometry: ArrayGeometry, seed: int = 5) -> Metric:
    """Mean search energy over three random searches [J]
    (:func:`~repro.analysis.throughput.characterize`)."""

    def metric(array: TCAMArray) -> float:
        return characterize(array, 3, seed=seed).energy_per_search

    return metric


def default_margin_metric() -> Metric:
    """Nominal sense margin [V]."""

    def metric(array: TCAMArray) -> float:
        return array.sense_margin()

    return metric


def tornado(geometry: ArrayGeometry, metric: Metric) -> list[SensitivityEntry]:
    """Rank FeFET cell parameters by their impact on ``metric``.

    Each parameter of the nominal :class:`FeFET2TCellParams` card moves
    by :data:`STEP_REL` of its value to each side.

    Args:
        geometry: Array shape each evaluation uses.
        metric: The figure of merit (see the ``default_*_metric`` helpers).

    Returns:
        Entries sorted by descending absolute swing.
    """
    base = FeFET2TCellParams()
    nominal = metric(_build_array(base, geometry))

    entries = []
    for label, attr in _FEFET_KNOBS:
        value = getattr(base.fefet, attr)
        low_fefet = replace(base.fefet, **{attr: value * (1.0 - STEP_REL)})
        high_fefet = replace(base.fefet, **{attr: value * (1.0 + STEP_REL)})
        low_params = FeFET2TCellParams(
            fefet=low_fefet, v_search=base.v_search, area_f2=base.area_f2
        )
        high_params = FeFET2TCellParams(
            fefet=high_fefet, v_search=base.v_search, area_f2=base.area_f2
        )
        low = metric(_build_array(low_params, geometry))
        high = metric(_build_array(high_params, geometry))
        entries.append(
            SensitivityEntry(parameter=label, low=low, nominal=nominal, high=high)
        )
    entries.sort(key=lambda e: -abs(e.swing_rel))
    return entries
