"""Match-line swing solver -- the analytical heart of Design LV.

Lowering the ML precharge target ``V_ML`` below VDD saves energy twice
over: the restore charge shrinks (``Q = C * V_ML``) *and* with a clamped
precharge the energy is ``C * V_ML * VDD`` -- linear, not quadratic, in the
swing.  The price is sense margin: the match/1-mismatch separation at the
strobe scales roughly with ``V_ML``, and once it falls under the
sense-amplifier offset guardband the TCAM mis-searches.

:func:`minimum_ml_voltage` finds the lowest swing whose margin still
clears ``k * sigma_offset`` by bisection; :func:`energy_vs_vml` produces
the energy/margin trade-off curve of experiment R-F5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.throughput import characterize
from ..errors import DesignError
from ..tcam.array import ArrayGeometry, TCAMArray
from .designs import DesignSpec, build_array


@dataclass(frozen=True)
class MarginReport:
    """Sense-margin characterization at one ML swing.

    Attributes:
        v_ml: Match-line swing [V].
        margin: V(match) - V(1-mismatch) at the strobe [V].
        guardband_sigmas: Margin divided by the SA offset sigma (the
            robustness figure the solver constrains).
        energy_per_search: Energy of a canonical random search [J].
        energy_per_bit: The same, per cell [J].
        functional: True when the nominal array still searches correctly.
    """

    v_ml: float
    margin: float
    guardband_sigmas: float
    energy_per_search: float
    energy_per_bit: float
    functional: bool


_CANONICAL_SEED = 1021
#: Sense-amplifier input-offset sigma the guardband is counted in [V].
SA_OFFSET_SIGMA = 0.010
#: Lower bracket of the :func:`minimum_ml_voltage` bisection [V].
V_ML_FLOOR = 0.05
#: Voltage resolution at which the bisection stops [V].
V_ML_TOLERANCE = 0.005


def _canonical_search_energy(array: TCAMArray, n_searches: int = 8) -> float:
    """Mean search energy over a fixed random workload [J].

    The workload (30% X stored patterns, fully specified keys, miss-
    dominated) is seeded so every design sees identical traffic.
    """
    report = characterize(array, n_searches, seed=_CANONICAL_SEED)
    return report.energy_per_search if report.functional_errors == 0 else float("inf")


def margin_at_vml(
    spec: DesignSpec,
    geometry: ArrayGeometry,
    v_ml: float,
) -> MarginReport:
    """Characterize a precharge design at a specific ML swing.

    Args:
        spec: A precharge-style design (Design LV or a baseline).
        geometry: Array shape the margin is evaluated for.
        v_ml: ML swing to test [V].

    Raises:
        DesignError: for current-race designs (no swing to set).
    """
    if spec.sensing != "precharge":
        raise DesignError(f"design {spec.name!r} has no ML swing to characterize")
    array = build_array(spec, geometry, ml_swing=v_ml)
    margin = array.sense_margin()
    energy = _canonical_search_energy(array)
    cells = geometry.rows * geometry.cols
    functional = np.isfinite(energy)
    return MarginReport(
        v_ml=v_ml,
        margin=margin,
        guardband_sigmas=margin / SA_OFFSET_SIGMA,
        energy_per_search=energy,
        energy_per_bit=energy / cells if functional else float("inf"),
        functional=functional,
    )


def minimum_ml_voltage(
    spec: DesignSpec,
    geometry: ArrayGeometry,
    guardband_sigmas: float = 6.0,
) -> float:
    """Lowest ML swing [V] whose margin clears the guardband, by bisection.

    The bracket runs from :data:`V_ML_FLOOR` to the node's nominal VDD
    and the bisection stops at :data:`V_ML_TOLERANCE`.

    Args:
        spec: A precharge-style design.
        geometry: Array shape.
        guardband_sigmas: Required margin in units of
            :data:`SA_OFFSET_SIGMA`.

    Raises:
        DesignError: when even the full swing cannot meet the guardband.
    """
    v_lo, v_hi = V_ML_FLOOR, geometry.node.vdd_nominal
    target = guardband_sigmas * SA_OFFSET_SIGMA

    def ok(v: float) -> bool:
        report = margin_at_vml(spec, geometry, v)
        return report.functional and report.margin >= target

    if not ok(v_hi):
        raise DesignError(
            f"design {spec.name!r} cannot meet a {guardband_sigmas:.1f}-sigma "
            f"guardband even at the full {v_hi:.2f} V swing"
        )
    if ok(v_lo):
        return v_lo
    lo, hi = v_lo, v_hi
    while hi - lo > V_ML_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def energy_vs_vml(
    spec: DesignSpec,
    geometry: ArrayGeometry,
    v_ml_values: np.ndarray,
) -> list[MarginReport]:
    """Sweep the ML swing and report the energy/margin trade-off.

    The benchmark R-F5 plots these points; the knee where the guardband
    crosses its requirement is where Design LV operates.
    """
    reports = []
    for v in np.asarray(v_ml_values, dtype=float):
        if v <= 0.0:
            raise DesignError(f"ML swing must be positive, got {v}")
        reports.append(margin_at_vml(spec, geometry, float(v)))
    return reports
