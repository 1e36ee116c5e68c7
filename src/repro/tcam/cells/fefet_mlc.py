"""Multi-level-cell (MLC) 2-FeFET TCAM cell.

Partial polarization is a free knob of the FeFET: programming with
trimmed pulses parks the threshold anywhere inside the memory window.
An MLC TCAM cell exploits that to store a per-cell *weight* along with
the ternary value -- a mismatching high-weight cell pulls its match line
down hard, a low-weight mismatch only weakly.  The ML discharge rate
then encodes a *weighted* Hamming distance, the primitive behind analog
in-memory similarity search (multi-bit FeFET CAM literature).

Level convention: ``level`` ranges 1..n_levels; the device's LVT-side
threshold interpolates linearly from just under ``vt_mid`` (weakest,
level 1) down to ``vt_lvt`` (strongest, level == n_levels).  The HVT
(blocking) state is unchanged, so match-side leakage does not grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...devices.mosfet import ekv_current
from ...errors import TCAMError
from ...units import thermal_voltage
from ..cell import CellDescriptor, FloatOrArray, WriteCost, ml_drain_bias
from ..trit import Trit
from .fefet2t import FeFET2TCellParams


@dataclass(frozen=True)
class MLCFeFETCellParams:
    """Parameters of the multi-level 2-FeFET cell.

    Attributes:
        base: The underlying binary 2-FeFET cell parameters.
        n_levels: Number of programmable strength levels (>= 2).
        level_sigma: Relative programming inaccuracy of a level's target
            polarization (used by robustness studies; 0 = ideal).
        calibrated: Place the level thresholds so the pull-down *current*
            steps are equal (``I(level w) = w/L * I_max`` at the read
            bias) rather than spacing the thresholds linearly.  Equal
            current steps make the summed ML current proportional to the
            weighted distance -- the calibration real analog-CAM designs
            perform.
    """

    base: FeFET2TCellParams = field(default_factory=FeFET2TCellParams)
    n_levels: int = 4
    level_sigma: float = 0.0
    calibrated: bool = True

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise TCAMError(f"n_levels must be >= 2, got {self.n_levels}")
        if not 0.0 <= self.level_sigma < 1.0:
            raise TCAMError(f"level_sigma must be in [0, 1), got {self.level_sigma}")


class MLCFeFETCell(CellDescriptor):
    """Descriptor for the weighted (MLC) 2-FeFET TCAM cell.

    Shares the binary cell's capacitances, write scheme and leakage; only
    the mismatch pull-down becomes level-dependent.  As a
    :class:`~repro.tcam.cell.CellDescriptor` the plain :meth:`i_pulldown`
    reports the fully-programmed (strongest) level, so an exact-match
    array built on this cell behaves like the binary 2-FeFET cell with
    the MLC thresholds; the weighted engine reads the level-resolved
    :meth:`i_pulldown_level` instead.
    """

    def __init__(self, params: MLCFeFETCellParams | None = None) -> None:
        self.params = params if params is not None else MLCFeFETCellParams()
        self._phi_t = thermal_voltage(300.0)
        f = self.params.base.fefet
        self._beta = f.kp * f.width / f.length
        from .fefet2t import FeFET2TCell

        self._binary = FeFET2TCell(self.params.base)
        self._level_vts = self._place_levels()

    def _place_levels(self) -> list[float]:
        """Threshold per level (index 0 unused; levels are 1-based)."""
        f = self.params.base.fefet
        n = self.params.n_levels
        if not self.params.calibrated:
            return [float("nan")] + [
                f.vt_mid - (level / n) * f.memory_window / 2.0
                for level in range(1, n + 1)
            ]
        # Calibrated placement: solve vt per level so the read-bias current
        # steps are equal fractions of the strongest level's current.
        v_read_ml = 0.9  # representative ML voltage during discharge
        i_max = self._current_at_vt(f.vt_lvt, v_read_ml)
        vts = [float("nan")] * (n + 1)
        vts[n] = f.vt_lvt
        for level in range(1, n):
            target = i_max * level / n
            lo, hi = f.vt_lvt, f.vt_mid  # current decreases with vt
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if self._current_at_vt(mid, v_read_ml) > target:
                    lo = mid
                else:
                    hi = mid
            vts[level] = 0.5 * (lo + hi)
        return vts

    def _current_at_vt(self, vt: float, v_ml: float) -> float:
        f = self.params.base.fefet
        return ekv_current(
            self.params.base.v_search, v_ml, vt, self._beta, f.n_slope,
            self._phi_t, f.lambda_cl,
        )

    # -- pass-throughs to the binary cell ---------------------------------

    @property
    def technology(self) -> str:
        """Short technology id."""
        return "fefet_mlc"

    @property
    def transistor_count(self) -> int:
        """Two FeFETs, like the binary cell -- MLC adds no devices."""
        return 2

    @property
    def nonvolatile(self) -> bool:
        """Polarization levels retain without power."""
        return True

    @property
    def n_levels(self) -> int:
        """Programmable strength levels."""
        return self.params.n_levels

    @property
    def c_ml_per_cell(self) -> float:
        """Match-line load (same junctions as the binary cell) [F]."""
        return self._binary.c_ml_per_cell

    @property
    def c_sl_gate_per_cell(self) -> float:
        """Search-line gate load [F]."""
        return self._binary.c_sl_gate_per_cell

    @property
    def v_search(self) -> float:
        """Search gate voltage [V]."""
        return self.params.base.v_search

    @property
    def area_f2(self) -> float:
        """Cell area [F^2] -- MLC adds no devices."""
        return self.params.base.area_f2

    def i_pulldown(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Mismatch current at full programming strength [A].

        The exact-match array senses every mismatching cell at the
        strongest level (``level == n_levels``); graded strengths are the
        weighted engine's domain (:meth:`i_pulldown_level`).
        """
        return self.i_pulldown_level(v_ml, self.params.n_levels, vt_offset)

    def i_leak(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Matching-cell leakage (binary HVT path, level-independent) [A]."""
        return self._binary.i_leak(v_ml, vt_offset)

    def write_cost(self, old: Trit, new: Trit) -> WriteCost:
        """Write cost; MLC programming uses the same erase+program pulses
        with trimmed amplitudes, so the binary cost is the right scale."""
        return self._binary.write_cost(old, new)

    def standby_leakage(self, vdd: float) -> float:
        """Idle leakage (binary worst case) [A]."""
        return self._binary.standby_leakage(vdd)

    # -- the MLC-specific part ----------------------------------------------

    def vt_at_level(self, level: int) -> float:
        """LVT-side threshold for a strength level [V].

        Level ``n_levels`` is the fully programmed LVT; with calibration
        on (the default) the intermediate levels sit wherever equal
        current steps demand, otherwise they are spaced linearly in VT.
        """
        self._check_level(level)
        return self._level_vts[level]

    def i_pulldown_level(
        self, v_ml: FloatOrArray, level: int, vt_offset: FloatOrArray = 0.0
    ) -> FloatOrArray:
        """Mismatch current of a cell programmed at ``level`` [A]
        (elementwise over ``v_ml`` / ``vt_offset``, 0 for ``v_ml <= 0``)."""
        self._check_level(level)
        f = self.params.base.fefet
        return ekv_current(
            self.params.base.v_search,
            ml_drain_bias(v_ml),
            self.vt_at_level(level) + vt_offset,
            self._beta,
            f.n_slope,
            self._phi_t,
            f.lambda_cl,
        )

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.params.n_levels:
            raise TCAMError(
                f"level {level} outside [1, {self.params.n_levels}]"
            )
