"""The 16-transistor CMOS NOR TCAM cell (baseline A).

Two 6T SRAM cells hold the ternary code (D, DB); four NMOS transistors form
two series compare stacks hanging off the match line.  On a mismatch,
exactly one stack has both gates high and discharges the ML through two
series devices; on a match every stack has at least one off device and only
subthreshold leakage flows.

Behavioral reductions:

* the series stack is modelled as one EKV device with half the single-device
  transconductance (standard series-stack approximation),
* the stack's off-state leakage is the off current of one device (the stack
  factor is folded into a 0.5 derating),
* SRAM write energy is the two cells' internal node swing plus a share of
  the bit-line swing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...devices.mosfet import MOSFET, MOSFETParams, ekv_current, nmos_45nm
from ...errors import TCAMError
from ...units import NANO, thermal_voltage
from ..cell import CellDescriptor, FloatOrArray, WriteCost, ml_drain_bias
from ..trit import Trit


@dataclass(frozen=True)
class CMOS16TParams:
    """Electrical parameters of the 16T cell.

    Attributes:
        compare_nmos: Compare-stack transistor parameters.
        vdd: Array supply [V].
        c_bitline_share: Bit-line capacitance charged per cell write [F].
        c_sram_node: One SRAM internal node capacitance [F].
        write_latency: SRAM write pulse [s].
        area_f2: Cell area [F^2] (literature: 16T NOR cells ~330 F^2).
        sram_leak_per_cell: Standby leakage of the two SRAM cells at
            nominal VDD [A].
    """

    compare_nmos: MOSFETParams = field(default_factory=lambda: nmos_45nm(width=135 * NANO))
    vdd: float = 0.9
    c_bitline_share: float = 2.0e-15
    c_sram_node: float = 0.15e-15
    write_latency: float = 1.0e-9
    area_f2: float = 331.0
    sram_leak_per_cell: float = 30.0e-12

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise TCAMError(f"vdd must be positive, got {self.vdd}")


class CMOS16TCell(CellDescriptor):
    """Descriptor for the 16T CMOS NOR TCAM cell."""

    def __init__(self, params: CMOS16TParams | None = None) -> None:
        self.params = params if params is not None else CMOS16TParams()
        self._nmos = MOSFET(self.params.compare_nmos)
        self._phi_t = thermal_voltage(300.0)

    # -- identity ----------------------------------------------------------

    @property
    def technology(self) -> str:
        return "cmos16t"

    @property
    def transistor_count(self) -> int:
        return 16

    @property
    def area_f2(self) -> float:
        return self.params.area_f2

    @property
    def nonvolatile(self) -> bool:
        return False

    @property
    def v_search(self) -> float:
        """CMOS search lines swing the full supply."""
        return self.params.vdd

    # -- capacitances --------------------------------------------------------

    @property
    def c_ml_per_cell(self) -> float:
        """Two compare-stack drains load the match line."""
        return 2.0 * self._nmos.junction_capacitance

    @property
    def c_sl_gate_per_cell(self) -> float:
        """One compare gate per search line."""
        return self._nmos.gate_capacitance

    # -- compare path -----------------------------------------------------------

    def i_pulldown(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Series compare stack with both gates at VDD.

        The two-device stack is folded into one EKV device with beta/2.
        """
        p = self.params.compare_nmos
        beta_stack = self._nmos.beta / 2.0
        return ekv_current(
            self.params.vdd,
            ml_drain_bias(v_ml),
            p.vt0 + vt_offset,
            beta_stack,
            p.n_slope,
            self._phi_t,
            p.lambda_cl,
        )

    def i_leak(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Off-stack subthreshold leakage (one off device dominates)."""
        p = self.params.compare_nmos
        return 0.5 * ekv_current(
            0.0,
            ml_drain_bias(v_ml),
            p.vt0 + vt_offset,
            self._nmos.beta,
            p.n_slope,
            self._phi_t,
            p.lambda_cl,
        )

    # -- write path ----------------------------------------------------------

    def write_cost(self, old: Trit, new: Trit) -> WriteCost:
        """SRAM write: both cells are driven every write cycle.

        TCAM encodings flip up to 4 internal nodes (two per SRAM cell); the
        bit lines swing regardless of the data, so the bit-line term is paid
        even for a no-op write.
        """
        p = self.params
        e_bitline = p.c_bitline_share * p.vdd**2
        flipped_nodes = 0 if old is new else 4
        e_nodes = flipped_nodes * p.c_sram_node * p.vdd**2
        return WriteCost(energy=e_bitline + e_nodes, latency=p.write_latency)

    # -- standby ----------------------------------------------------------------

    def standby_leakage(self, vdd: float) -> float:
        """SRAM retention leakage dominates the volatile cell."""
        if vdd <= 0.0:
            raise TCAMError(f"vdd must be positive, got {vdd}")
        return self.params.sram_leak_per_cell * (vdd / self.params.vdd)
