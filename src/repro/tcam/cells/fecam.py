"""FeCAM-style analog distance cell: continuous thresholds, window match.

An analog FeFET CAM stores a *continuous* value as the programmed
threshold of one FeFET and matches a searched value when it falls inside
an acceptance window around the stored one -- the FeCAM primitive for
in-memory similarity search.  Against the digital 2-FeFET cell the trade
is density and function for margin:

* density: the memory window resolves ``window / (2 * half_window)``
  distinguishable states, i.e. several equivalent bits in one cell;
* function: the acceptance window is a tunable match *tolerance*;
* margin: a *matching* cell is biased only ``half_window`` volts below
  conduction, so match-side leakage is orders of magnitude above the
  digital HVT path, and programming noise of the threshold directly
  produces wrong accept/reject decisions.

The descriptor keeps the 2-FeFET electrical frame (same capacitances and
footprint) and re-characterizes the compare path around the window: a
mismatching cell conducts with the gate ``half_window`` past threshold
(the boundary case -- farther mismatches only discharge faster), a
matching cell leaks with the gate ``half_window`` below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...devices.mosfet import ekv_current
from ...errors import TCAMError
from ...units import thermal_voltage
from ..cell import CellDescriptor, FloatOrArray, WriteCost, ml_drain_bias
from ..trit import Trit
from .fefet2t import FeFET2TCell, FeFET2TCellParams


@dataclass(frozen=True)
class FeCAMCellParams:
    """Parameters of the analog (FeCAM-style) distance cell.

    Attributes:
        base: The underlying 2-FeFET cell parameters (device frame).
        half_window: Acceptance half-window in threshold volts; a search
            within ``half_window`` of the stored value matches.
        sigma_program: Std of the programmed threshold placement [V]
            (write noise; 0 = ideal).
        verify_pulses: Program-verify pulses an analog placement takes
            on top of the binary erase+program sequence.
    """

    base: FeFET2TCellParams = field(default_factory=FeFET2TCellParams)
    # The default window keeps exact-match arrays functional to ~32
    # driven columns (the match-side leakage of an analog cell grows
    # with the word width); narrower windows buy bits per cell at the
    # cost of width -- the trade the DSE campaign charts.
    half_window: float = 0.1
    sigma_program: float = 0.03
    verify_pulses: int = 3

    def __post_init__(self) -> None:
        if self.half_window <= 0.0:
            raise TCAMError(f"half_window must be positive, got {self.half_window}")
        if self.half_window >= self.base.fefet.memory_window / 2.0:
            raise TCAMError(
                f"half_window={self.half_window} V must be well inside the "
                f"memory window ({self.base.fefet.memory_window} V)"
            )
        if self.sigma_program < 0.0:
            raise TCAMError(
                f"sigma_program must be non-negative, got {self.sigma_program}"
            )
        if self.verify_pulses < 0:
            raise TCAMError(
                f"verify_pulses must be non-negative, got {self.verify_pulses}"
            )


class FeCAMCell(CellDescriptor):
    """Descriptor for the analog FeFET distance-matching cell."""

    def __init__(self, params: FeCAMCellParams | None = None) -> None:
        self.params = params if params is not None else FeCAMCellParams()
        self._phi_t = thermal_voltage(300.0)
        f = self.params.base.fefet
        self._beta = f.kp * f.width / f.length
        self._binary = FeFET2TCell(self.params.base)

    # -- identity ----------------------------------------------------------

    @property
    def technology(self) -> str:
        return "fecam"

    @property
    def transistor_count(self) -> int:
        """Same 2-FeFET frame as the digital cell."""
        return 2

    @property
    def area_f2(self) -> float:
        return self.params.base.area_f2

    @property
    def nonvolatile(self) -> bool:
        return True

    @property
    def v_search(self) -> float:
        """Search gate level the window is characterized at [V]."""
        return self.params.base.v_search

    @property
    def bits_per_cell(self) -> float:
        """Equivalent bits: log2 of the distinguishable analog states."""
        f = self.params.base.fefet
        states = f.memory_window / (2.0 * self.params.half_window)
        return math.log2(states)

    # -- capacitances --------------------------------------------------------

    @property
    def c_ml_per_cell(self) -> float:
        return self._binary.c_ml_per_cell

    @property
    def c_sl_gate_per_cell(self) -> float:
        return self._binary.c_sl_gate_per_cell

    # -- compare path -----------------------------------------------------------

    def _current(self, vgs: float, vds: FloatOrArray, vt: FloatOrArray) -> FloatOrArray:
        f = self.params.base.fefet
        return ekv_current(vgs, vds, vt, self._beta, f.n_slope, self._phi_t, f.lambda_cl)

    def i_pulldown(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Boundary mismatch: gate ``half_window`` past threshold [A].

        A searched value just outside the acceptance window overdrives
        the stored device by the half-window only -- the weakest
        discharge an out-of-window search produces (farther mismatches
        discharge faster, so this is the margin-setting case).
        """
        vt_eff = self.params.base.v_search - self.params.half_window + vt_offset
        return self._current(self.params.base.v_search, ml_drain_bias(v_ml), vt_eff)

    def i_leak(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Boundary match: gate ``half_window`` below threshold [A].

        The worst matching cell sits a half-window under conduction --
        subthreshold, but far closer to it than a digital HVT device.
        This is the analog cell's defining margin cost.
        """
        vt_eff = self.params.base.v_search + self.params.half_window + vt_offset
        return self._current(self.params.base.v_search, ml_drain_bias(v_ml), vt_eff)

    # -- write path ----------------------------------------------------------

    def write_cost(self, old: Trit, new: Trit) -> WriteCost:
        """Analog placement: binary erase+program plus verify pulses."""
        cost = self._binary.write_cost(old, new)
        if cost.energy == 0.0 and cost.latency == 0.0:
            return cost
        scale = 1.0 + float(self.params.verify_pulses)
        return WriteCost(energy=cost.energy * scale, latency=cost.latency * scale)

    # -- standby ----------------------------------------------------------------

    def standby_leakage(self, vdd: float) -> float:
        """Idle gates are grounded; the binary standby path applies."""
        return self._binary.standby_leakage(vdd)

    # -- accuracy -----------------------------------------------------------

    def match_accuracy(self) -> float:
        """Probability a programmed value decides its window correctly.

        The placement error is ``N(0, sigma_program)``; the decision
        flips when it crosses the window edge, so the per-cell accuracy
        is ``erf(half_window / (sqrt(2) * sigma))``.
        """
        sigma = self.params.sigma_program
        if sigma == 0.0:
            return 1.0
        return math.erf(self.params.half_window / (math.sqrt(2.0) * sigma))
