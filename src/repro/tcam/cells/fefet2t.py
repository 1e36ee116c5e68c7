"""The 2-FeFET TCAM cell -- the substrate of the paper's designs.

Two FeFETs hang drain-first off the match line with grounded sources;
their gates are the search-line pair.  Polarization state encodes the trit:

=========== =========== ===========
stored trit M_A (on SL) M_B (on SLB)
=========== =========== ===========
``1``        LVT          HVT
``0``        HVT          LVT
``X``        HVT          HVT
=========== =========== ===========

Searching ``0`` raises SL, searching ``1`` raises SLB (see
:func:`repro.tcam.trit.sl_drive`).  A mismatch therefore drives the LVT
device, which conducts strongly; every other combination leaves only an
off-state FeFET or an undriven gate on the line.

The cell stores without SRAM (non-volatile), puts only two junctions on the
ML, and enjoys a polarization-programmed on/off ratio of 10^5 - 10^7 --
the device-level reasons FeTCAM search energy undercuts CMOS.

Write scheme: erase-then-program.  Both devices receive a negative erase
pulse (to HVT); the LVT device (if the trit has one) then receives a
positive program pulse.  Stored X skips the program phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...devices.fefet import FeFETParams
from ...devices.mosfet import ekv_current
from ...errors import TCAMError
from ...units import NANO, thermal_voltage
from ..cell import CellDescriptor, FloatOrArray, WriteCost, ml_drain_bias
from ..trit import Trit


def default_fefet_cell_params() -> FeFETParams:
    """FeFET parameters tuned for TCAM compare duty.

    The threshold window straddles the search-gate voltage: LVT at 0.4 V
    conducts strongly under a 1.1 V gate (0.7 V overdrive), HVT at 1.6 V
    stays 0.5 V below threshold, and an undriven LVT gate (0 V) sits a
    full 0.4 V below threshold, keeping the idle compare path in the
    tens-of-picoamps range.
    """
    return FeFETParams(
        name="fefet-tcam",
        vt_mid=1.00,
        memory_window=1.20,
        width=90 * NANO,
        length=30 * NANO,
    )


@dataclass(frozen=True)
class FeFET2TCellParams:
    """Cell-level parameters of the 2-FeFET TCAM cell.

    Attributes:
        fefet: Device parameters of both FeFETs.
        v_search: Search-line high level [V] -- the read gate voltage.
        area_f2: Cell area [F^2] (2-FeFET cells report ~60-90 F^2).
    """

    fefet: FeFETParams = field(default_factory=default_fefet_cell_params)
    v_search: float = 1.1
    area_f2: float = 74.0

    def __post_init__(self) -> None:
        if self.v_search <= 0.0:
            raise TCAMError(f"v_search must be positive, got {self.v_search}")
        if not self.fefet.vt_lvt < self.v_search < self.fefet.vt_hvt:
            raise TCAMError(
                f"v_search={self.v_search} V must sit inside the threshold window "
                f"({self.fefet.vt_lvt:.2f}, {self.fefet.vt_hvt:.2f}) V"
            )


class FeFET2TCell(CellDescriptor):
    """Descriptor for the 2-FeFET NOR TCAM cell."""

    def __init__(self, params: FeFET2TCellParams | None = None, temperature_k: float = 300.0) -> None:
        self.params = params if params is not None else FeFET2TCellParams()
        self._phi_t = thermal_voltage(temperature_k)
        f = self.params.fefet
        self._beta = f.kp * f.width / f.length

    # -- identity ----------------------------------------------------------

    @property
    def technology(self) -> str:
        return "fefet2t"

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
        """Read gate voltage sitting inside the threshold window."""
        return self.params.v_search

    # -- capacitances --------------------------------------------------------

    @property
    def c_ml_per_cell(self) -> float:
        """Two FeFET drain junctions on the match line."""
        f = self.params.fefet
        return 2.0 * f.c_junction_per_width * f.width

    @property
    def c_sl_gate_per_cell(self) -> float:
        """One FeFET gate stack per search line."""
        f = self.params.fefet
        return f.c_gate_per_area * f.width * f.length

    # -- compare path -----------------------------------------------------------

    def _current(self, vgs: float, vds: FloatOrArray, vt: FloatOrArray) -> FloatOrArray:
        f = self.params.fefet
        return ekv_current(vgs, vds, vt, self._beta, f.n_slope, self._phi_t, f.lambda_cl)

    def i_pulldown(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Mismatch: the driven device is in the LVT state."""
        return self._current(
            self.params.v_search, ml_drain_bias(v_ml), self.params.fefet.vt_lvt + vt_offset
        )

    def i_leak(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Match: a driven HVT device plus an undriven LVT device leak.

        Both subthreshold paths are summed; the undriven-LVT term dominates
        because its threshold is only ``vt_lvt`` above a grounded gate.
        """
        v = ml_drain_bias(v_ml)
        f = self.params.fefet
        i_driven_hvt = self._current(self.params.v_search, v, f.vt_hvt + vt_offset)
        i_undriven_lvt = self._current(0.0, v, f.vt_lvt + vt_offset)
        return i_driven_hvt + i_undriven_lvt

    # -- write path ----------------------------------------------------------

    def write_cost(self, old: Trit, new: Trit) -> WriteCost:
        """Erase-then-program: 2 erase pulses + at most 1 program pulse.

        FeFET writes are gate-capacitance-dominated; no DC current flows, so
        unlike ReRAM the energy does not scale with a filament current.
        """
        if old is new:
            return WriteCost(energy=0.0, latency=0.0)
        f = self.params.fefet
        gate_area = f.width * f.length
        c_gate = f.c_gate_per_area * gate_area
        q_full = 2.0 * f.material.p_rem * gate_area
        e_pulse = q_full * f.program_voltage + c_gate * f.program_voltage**2
        n_program = 0 if new is Trit.X else 1
        # Erase phase always hits both devices; only already-HVT devices
        # switch no charge but still swing the gate stack.
        e_erase = 2.0 * (0.5 * q_full * f.program_voltage + c_gate * f.program_voltage**2)
        energy = e_erase + n_program * e_pulse
        latency = 2.0 * f.program_width  # erase phase + program phase
        return WriteCost(energy=energy, latency=latency)

    # -- standby ----------------------------------------------------------------

    def standby_leakage(self, vdd: float) -> float:
        """Idle SLs low: both FeFETs see grounded gates.

        The LVT device's subthreshold current is the only standby path;
        polarization retention needs no power.
        """
        if vdd <= 0.0:
            raise TCAMError(f"vdd must be positive, got {vdd}")
        f = self.params.fefet
        return self._current(0.0, vdd, f.vt_lvt) + self._current(0.0, vdd, f.vt_hvt)
