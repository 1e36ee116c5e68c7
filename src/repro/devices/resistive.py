"""Bistable ReRAM resistor for the 2T-2R TCAM baseline.

The behavioral comparison against a resistive TCAM only needs the two
resistance states and SET/RESET pulse energetics.  Filament
physics is deliberately out of scope (see DESIGN.md substitution table).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import DeviceError


class ReRAMState(enum.Enum):
    """Logical resistance state."""

    LRS = "lrs"
    HRS = "hrs"


@dataclass(frozen=True)
class ReRAMParams:
    """Parameters of a bistable resistive element.

    Attributes:
        name: Label for reports.
        r_lrs: Low-resistance (SET) state [ohm].
        r_hrs: High-resistance (RESET) state [ohm].
        v_set: SET pulse amplitude [V].
        v_reset: RESET pulse amplitude magnitude [V].
        i_compliance: Write-current compliance of the access device [A];
            caps the RESET current that would otherwise flow through the
            low-resistance state.
        t_write: Write pulse width [s].
        c_cell: Parasitic capacitance of the element [F].
        endurance_cycles: Nominal endurance (reports only).
    """

    name: str = "rram-hfo2"
    r_lrs: float = 10e3
    r_hrs: float = 1e6
    v_set: float = 2.0
    v_reset: float = 2.2
    i_compliance: float = 100e-6
    t_write: float = 50e-9
    c_cell: float = 0.1e-15
    endurance_cycles: float = 1e6

    def __post_init__(self) -> None:
        if self.r_lrs <= 0.0 or self.r_hrs <= 0.0:
            raise DeviceError(f"{self.name}: resistances must be positive")
        if self.r_hrs <= self.r_lrs:
            raise DeviceError(
                f"{self.name}: HRS ({self.r_hrs}) must exceed LRS ({self.r_lrs})"
            )

    @property
    def on_off_ratio(self) -> float:
        """Nominal HRS/LRS resistance ratio."""
        return self.r_hrs / self.r_lrs


class ReRAM:
    """One resistive element at its nominal LRS/HRS resistances.

    Args:
        params: Device parameters.
    """

    def __init__(self, params: ReRAMParams = ReRAMParams()) -> None:
        self.params = params
        self.state = ReRAMState.HRS

    @property
    def resistance(self) -> float:
        """Present resistance [ohm]."""
        p = self.params
        return p.r_lrs if self.state is ReRAMState.LRS else p.r_hrs

    def write(self, state: ReRAMState) -> float:
        """Switch to ``state``; return the write energy [J].

        The energy is the Joule dissipation of the write pulse through the
        *departing* resistance state (the conservative, standard estimate),
        current-limited by the access device's compliance, plus the CV^2 of
        the cell parasitic.
        """
        p = self.params
        if state is self.state:
            return 0.0
        if state is ReRAMState.LRS:
            voltage, r_path = p.v_set, p.r_hrs
        else:
            voltage, r_path = p.v_reset, p.r_lrs
        current = min(voltage / r_path, p.i_compliance)
        energy = voltage * current * p.t_write + p.c_cell * voltage**2
        self.state = state
        return energy

    def conductance(self) -> float:
        """Present conductance [S]."""
        return 1.0 / self.resistance
