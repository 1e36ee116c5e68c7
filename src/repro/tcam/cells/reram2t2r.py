"""The 2-transistor / 2-resistor ReRAM TCAM cell (baseline B).

Each branch is an NMOS access transistor in series with a resistive
element, hanging off the match line.  Storing ``1`` puts the LRS in the
branch gated by SL (the "detect search-0" branch is HRS and vice versa);
storing ``X`` puts both elements in HRS so the cell can never discharge the
line.

The defining limitation of this baseline is the finite HRS/LRS ratio: a
*matching* driven branch still leaks ``V_ML / (R_HRS + R_access)``, so wide
words accumulate enough match-side leakage to erode the sense margin --
exactly the effect experiment R-F6 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...devices.mosfet import MOSFET, MOSFETParams, ekv_current, nmos_45nm
from ...devices.resistive import ReRAM, ReRAMParams, ReRAMState
from ...errors import TCAMError
from ...units import NANO, thermal_voltage
from ..cell import CellDescriptor, FloatOrArray, WriteCost, ml_drain_bias
from ..trit import Trit


@dataclass(frozen=True)
class ReRAM2T2RParams:
    """Electrical parameters of the 2T-2R cell.

    Attributes:
        rram: Resistive-element parameters.
        access_nmos: Access-transistor parameters.
        vdd: Array supply / SL swing [V].
        area_f2: Cell area [F^2] (2T2R cells report ~90-120 F^2).
    """

    rram: ReRAMParams = field(
        default_factory=lambda: ReRAMParams(r_lrs=5e3, r_hrs=5e7)
    )
    access_nmos: MOSFETParams = field(default_factory=lambda: nmos_45nm(width=90 * NANO))
    vdd: float = 0.9
    area_f2: float = 96.0

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise TCAMError(f"vdd must be positive, got {self.vdd}")


class ReRAM2T2RCell(CellDescriptor):
    """Descriptor for the 2T-2R resistive TCAM cell."""

    def __init__(self, params: ReRAM2T2RParams | None = None) -> None:
        self.params = params if params is not None else ReRAM2T2RParams()
        self._nmos = MOSFET(self.params.access_nmos)
        # Access-transistor on-resistance at full gate drive, linearized.
        i_lin = self._nmos.current(self.params.vdd, 0.05)
        self._r_access = 0.05 / i_lin if i_lin > 0.0 else float("inf")
        # SET and RESET pulse energies of one nominal element.
        element = ReRAM(self.params.rram)  # powers on in HRS
        self._e_set = element.write(ReRAMState.LRS)
        self._e_reset = element.write(ReRAMState.HRS)

    # -- identity ----------------------------------------------------------

    @property
    def technology(self) -> str:
        return "reram2t2r"

    @property
    def transistor_count(self) -> int:
        return 2

    @property
    def area_f2(self) -> float:
        return self.params.area_f2

    @property
    def nonvolatile(self) -> bool:
        return True

    @property
    def v_search(self) -> float:
        """Access gates are driven at the full supply."""
        return self.params.vdd

    # -- capacitances --------------------------------------------------------

    @property
    def c_ml_per_cell(self) -> float:
        """Two access drains plus the two element parasitics."""
        return 2.0 * self._nmos.junction_capacitance + 2.0 * self.params.rram.c_cell

    @property
    def c_sl_gate_per_cell(self) -> float:
        """One access gate per search line."""
        return self._nmos.gate_capacitance

    # -- compare path -----------------------------------------------------------

    def i_pulldown(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Driven mismatching branch: ML through LRS + access transistor.

        The current is resistor-limited but cannot exceed the transistor's
        saturation current; ``vt_offset`` derates the latter.
        """
        v = ml_drain_bias(v_ml)
        i_resistive = v / (self.params.rram.r_lrs + self._r_access)
        i_sat = self._sat_current(v, vt_offset)
        return np.minimum(i_resistive, i_sat)

    def i_leak(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Driven matching branch leaks through the HRS element."""
        return ml_drain_bias(v_ml) / (self.params.rram.r_hrs + self._r_access)

    def _sat_current(self, v_ml: FloatOrArray, vt_offset: FloatOrArray) -> FloatOrArray:
        p = self.params.access_nmos
        return ekv_current(
            self.params.vdd,
            v_ml,
            p.vt0 + vt_offset,
            self._nmos.beta,
            p.n_slope,
            thermal_voltage(300.0),
            p.lambda_cl,
        )

    # -- write path ----------------------------------------------------------

    def write_cost(self, old: Trit, new: Trit) -> WriteCost:
        """Each data change re-forms both elements (one SET + one RESET).

        Writing X from a data state RESETs the LRS element only; writing a
        data state from X SETs one element only.
        """
        if old is new:
            return WriteCost(energy=0.0, latency=0.0)
        if new is Trit.X:
            energy = self._e_reset  # the single LRS element goes HRS
        elif old is Trit.X:
            energy = self._e_set  # one element goes LRS
        else:
            energy = self._e_set + self._e_reset  # swap the two branches
        return WriteCost(energy=energy, latency=self.params.rram.t_write)

    # -- standby ----------------------------------------------------------------

    def standby_leakage(self, vdd: float) -> float:
        """Idle SLs are low: only access-transistor subthreshold leakage."""
        if vdd <= 0.0:
            raise TCAMError(f"vdd must be positive, got {vdd}")
        return 2.0 * self._nmos.off_current(vdd)
