"""Search-line driver model.

Each ternary column has a pair of search lines (SL, SLB) running the full
height of the array.  Their energy is pure switched-capacitance::

    E_SL = alpha * C_SL * VDD^2

where the activity ``alpha`` is the fraction of SL pairs that toggle
between consecutive search keys.  Don't-care (X) columns can be gated so
both lines idle low -- one of the energy-aware techniques (DESIGN.md #4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CircuitError
from .wire import WireModel


@dataclass(frozen=True)
class SearchLine:
    """One search-line pair spanning ``n_rows`` cells.

    Attributes:
        n_rows: Number of cells the line pair crosses.
        c_gate_per_cell: Gate load each cell puts on one line [F].
        cell_pitch: Vertical cell pitch [m] (sets the wire length).
        wire: Routing-layer model.
        c_driver: Driver self-load [F].
    """

    n_rows: int
    c_gate_per_cell: float
    cell_pitch: float
    wire: WireModel
    c_driver: float = 0.5e-15

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise CircuitError(f"n_rows must be >= 1, got {self.n_rows}")
        if self.c_gate_per_cell < 0.0 or self.c_driver < 0.0:
            raise CircuitError("capacitances must be non-negative")
        if self.cell_pitch <= 0.0:
            raise CircuitError(f"cell pitch must be positive, got {self.cell_pitch}")

    @property
    def length(self) -> float:
        """Physical line length [m]."""
        return self.n_rows * self.cell_pitch

    @property
    def capacitance_single(self) -> float:
        """Capacitance of one line of the pair [F]."""
        return (
            self.n_rows * self.c_gate_per_cell
            + self.wire.capacitance(self.length)
            + self.c_driver
        )

    def toggle_energy(self, vdd: float) -> float:
        """Energy to toggle exactly one line of the pair [J]."""
        if vdd <= 0.0:
            raise CircuitError(f"vdd must be positive, got {vdd}")
        return self.capacitance_single * vdd * vdd

    def settle_delay(self, r_driver: float) -> float:
        """Elmore 50% delay of the driver charging the line [s]."""
        if r_driver <= 0.0:
            raise CircuitError(f"driver resistance must be positive, got {r_driver}")
        r_wire = self.wire.resistance(self.length)
        c_line = self.capacitance_single
        return 0.69 * r_driver * c_line + 0.38 * r_wire * c_line


def count_toggles(previous_drive: tuple[int, ...], current_drive: tuple[int, ...]) -> int:
    """Count individual SL transitions between two drive vectors.

    Each element encodes one column's (SL, SLB) state packed as two bits
    ``sl*2 + slb``; the toggle count is the Hamming distance over all bits.
    """
    if len(previous_drive) != len(current_drive):
        raise CircuitError("drive vectors must have equal length")
    toggles = 0
    for prev, cur in zip(previous_drive, current_drive):
        diff = (prev ^ cur) & 0b11
        toggles += (diff & 1) + ((diff >> 1) & 1)
    return toggles
