"""The electrical cell descriptor protocol.

A :class:`CellDescriptor` is a *stateless* electrical characterization of
one TCAM cell technology.  The array core keeps the stored trits in a
matrix and asks the descriptor only for physics:

* how much capacitance one cell puts on the match line and search lines,
* the pull-down current of one mismatching cell as a function of the
  instantaneous ML voltage,
* the leakage of one matching cell,
* write energetics per trit transition,
* area and transistor count for the comparison table.

Keeping descriptors stateless lets a 1024 x 128 array share one descriptor
instead of instantiating 131k device objects, while Monte-Carlo runs can
still derate currents per row through the ``vt_offset`` hooks.

The compare-path currents take a scalar or an array of match-line
voltages (and offsets) and evaluate elementwise through the numpy
device model, so one call covers every line of a stacked discharge and a
scalar call is bit for bit the matching element of an array call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import TCAMError
from .trit import Trit


#: A scalar or an elementwise numpy array (voltages, offsets, currents).
FloatOrArray = float | np.ndarray


def ml_drain_bias(v_ml: FloatOrArray) -> FloatOrArray:
    """Match-line voltage as a compare path's drain bias, elementwise.

    Clamps ``v <= 0`` to ``0.0``.  Every compare path conducts exactly
    0 A at zero drain bias (the EKV forward and reverse terms cancel, a
    resistive branch carries ``0 / R``), so a cell current evaluated at
    this bias is 0 for a line at or below ground with no branch per
    element.  NaN stays NaN, which the device model rejects.
    """
    if isinstance(v_ml, float) and v_ml > 0.0:
        return v_ml  # what np.maximum returns for it, without the ufunc call
    return np.maximum(v_ml, 0.0)


@dataclass(frozen=True)
class WriteCost:
    """Cost of writing one cell.

    Attributes:
        energy: Write energy [J].
        latency: Write latency [s].
    """

    energy: float
    latency: float

    def __post_init__(self) -> None:
        if self.energy < 0.0 or self.latency < 0.0:
            raise TCAMError("write cost must be non-negative")


class CellDescriptor(abc.ABC):
    """Abstract electrical descriptor of one TCAM cell technology."""

    # -- identity ----------------------------------------------------------

    @property
    @abc.abstractmethod
    def technology(self) -> str:
        """Short technology id (e.g. ``"cmos16t"``)."""

    @property
    @abc.abstractmethod
    def transistor_count(self) -> int:
        """Transistors per cell (storage + compare)."""

    @property
    @abc.abstractmethod
    def area_f2(self) -> float:
        """Cell area in squared feature sizes [F^2]."""

    @property
    @abc.abstractmethod
    def nonvolatile(self) -> bool:
        """True when the cell retains data without power."""

    @property
    @abc.abstractmethod
    def v_search(self) -> float:
        """Search-line high level the compare path is characterized at [V]."""

    # -- capacitances --------------------------------------------------------

    @property
    @abc.abstractmethod
    def c_ml_per_cell(self) -> float:
        """Drain/junction load one cell adds to its match line [F]."""

    @property
    @abc.abstractmethod
    def c_sl_gate_per_cell(self) -> float:
        """Gate load one cell adds to one search line [F]."""

    # -- compare-path currents -------------------------------------------------

    @abc.abstractmethod
    def i_pulldown(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Pull-down current of one *mismatching* cell at ML voltage [A].

        Elementwise over array arguments (see the module docstring); 0
        wherever ``v_ml <= 0``.

        Args:
            v_ml: Instantaneous match-line voltage(s) [V].
            vt_offset: Threshold shift(s) of the conducting device [V]
                (Monte-Carlo and retention hook; positive weakens the
                pull-down).  Broadcasts against ``v_ml``.
        """

    @abc.abstractmethod
    def i_leak(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Leakage of one *matching* cell at ML voltage(s) [A]; elementwise
        like :meth:`i_pulldown`."""

    # -- write path ----------------------------------------------------------

    @abc.abstractmethod
    def write_cost(self, old: Trit, new: Trit) -> WriteCost:
        """Cost of transitioning one cell from ``old`` to ``new``."""

    # -- static leakage -------------------------------------------------------

    @abc.abstractmethod
    def standby_leakage(self, vdd: float) -> float:
        """Per-cell standby leakage current from VDD [A].

        Volatile cells (SRAM-based) leak continuously; non-volatile cells
        leak only through the (idle) compare path.
        """

    # -- density / fidelity (multi-bit and analog cells override) -------------

    @property
    def bits_per_cell(self) -> float:
        """Stored bits per physical cell (1 for digital ternary cells).

        Multi-bit cells report their bit count, analog cells the base-2
        log of their distinguishable states; the design-space explorer
        divides area by this to compare technologies per stored bit.
        """
        return 1.0

    def match_accuracy(self) -> float:
        """Per-cell probability of a correct match decision (ideal: 1.0).

        Digital cells decide deterministically; multi-bit and analog
        cells derate for programming noise against their level / window
        margins.
        """
        return 1.0

    # -- conveniences -----------------------------------------------------------

    def on_off_ratio(self, v_ml: float) -> float:
        """Mismatch-to-match current ratio at the given ML voltage."""
        leak = self.i_leak(v_ml)
        if leak <= 0.0:
            return float("inf")
        return self.i_pulldown(v_ml) / leak

    def describe(self) -> dict[str, float | int | str | bool]:
        """Summary dict used by the comparison-table benchmark."""
        return {
            "technology": self.technology,
            "transistors": self.transistor_count,
            "area_f2": self.area_f2,
            "nonvolatile": self.nonvolatile,
            "c_ml_per_cell_f": self.c_ml_per_cell,
            "c_sl_gate_per_cell_f": self.c_sl_gate_per_cell,
        }
