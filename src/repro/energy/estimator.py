"""The array's booking surface: one :class:`ArrayEstimator` per array.

Every joule a :class:`~repro.tcam.array.TCAMArray` books -- search-line
toggles, match-line restore and dissipation, the sense or race
amplifier, priority encoding, leakage and cell writes -- is priced by
the typed methods of its estimator.  Each method is the array's
historical inline expression moved here unchanged (same operand
grouping), so routing the ledger through the estimator is bit-identical
to the legacy accounting -- enforced by
``tests/energy/test_estimator_equivalence.py``.  Substituting an
estimator (``array.estimator = ...``) reprices a study without
touching the physics.

Writes are gathered from one cached 3x3 ``(old, new)`` table pair
(:class:`WriteTables`), which the NAND and weighted arrays build over
their cell's ``write_cost`` as well.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..circuits.senseamp import SenseDecision
    from ..tcam.array import TCAMArray
    from ..tcam.cell import WriteCost
    from ..tcam.trit import Trit


class WriteTables:
    """A write pricing served as read-only 3x3 ``(old, new)`` tables.

    Calling the holder returns the energy [J] and latency [s] tables,
    indexed by the trits' integer codes.  They are built on the first
    call from nine ``write_cost(old, new)`` calls and cached.

    Raises:
        ReproError: unless every entry is finite and >= 0 -- the check
            :meth:`EnergyLedger.add` makes on each booking.
    """

    def __init__(self, write_cost: Callable[["Trit", "Trit"], "WriteCost"]) -> None:
        self._write_cost = write_cost
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        if self._tables is None:
            from ..tcam.trit import Trit  # runtime import: tcam imports this module

            costs = [self._write_cost(Trit(o), Trit(t)) for o in range(3) for t in range(3)]
            tables = []
            for quantity in ("energy", "latency"):
                values = [getattr(c, quantity) for c in costs]
                if not all(0.0 <= v < math.inf for v in values):  # NaN fails too
                    raise ReproError(
                        f"write {quantity} must be non-negative and finite, got {values}"
                    )
                table = np.array(values, dtype=np.float64).reshape(3, 3)
                table.flags.writeable = False
                tables.append(table)
            self._tables = tuple(tables)
        return self._tables


class ArrayEstimator:
    """Per-array estimator: the array's single booking surface.

    Built by :class:`~repro.tcam.array.TCAMArray` at construction, it
    composes the cell descriptor with the array's sensing chain (search
    line, precharge scheme, sense/race amplifier, priority encoder).
    :meth:`sense`, :meth:`race` and :meth:`write_cost` return the whole
    decision or cost (match verdict, delay, latency) because the array
    needs it alongside the energy.
    """

    def __init__(self, array: "TCAMArray") -> None:
        self._array = array
        # Bound here so a subclass overriding write_cost reprices writes.
        self._write_tables = WriteTables(self.write_cost)

    @property
    def array(self) -> "TCAMArray":
        """The array this estimator prices."""
        return self._array

    def sl_toggle_energy(self) -> float:
        """Energy of one search-line pair toggle [J]."""
        a = self._array
        return a.search_line.toggle_energy(a.cell.v_search)

    def ml_precharge_energy(self, v_end: float, n: float = 1) -> float:
        """Restore ``n`` match lines from ``v_end`` to the target [J]."""
        a = self._array
        if n == 1:
            return a.precharge.restore_energy(a.c_ml, v_end)
        return n * a.precharge.restore_energy(a.c_ml, v_end)

    def ml_dissipation_energy(self, v_end: float, n: float = 1) -> float:
        """Charge dissipated discharging ``n`` lines to ``v_end`` [J]."""
        a = self._array
        v_pre = a.precharge.target_voltage()
        if n == 1:
            return 0.5 * a.c_ml * (v_pre**2 - v_end**2)
        return n * 0.5 * a.c_ml * (v_pre**2 - v_end**2)

    def sense(self, v_end: float, offset: float = 0.0) -> "SenseDecision":
        """Strobe the voltage SA at an ML endpoint (offset: SA defect)."""
        if offset == 0.0:
            return self._array.sense_amp.strobe(v_end)
        return self._array.sense_amp.strobe(v_end - offset)

    def sense_idle_energy(self, n: float = 1) -> float:
        """Internal-node swing of ``n`` SAs without a full strobe [J].

        Best-match mode charges every SA's latch nodes but resolves the
        winner in the time domain, so only the CV^2 term books.
        """
        a = self._array
        return n * a.sense_amp.c_internal * a.vdd**2

    def race(self, i_total: float, offset: float = 0.0) -> "SenseDecision":
        """Evaluate the current-race amplifier against a pull-down sum."""
        a = self._array
        amp = a.race_amp if offset == 0.0 else replace(a.race_amp, offset=offset)
        return amp.evaluate(a.c_ml, i_total)

    def encode_energy(self) -> float:
        """Priority-encoding energy of one search [J]."""
        return self._array.encoder.energy_per_search

    def write_cost(self, old: "Trit", new: "Trit") -> "WriteCost":
        """One cell's trit-transition cost (energy and latency)."""
        return self._array.cell.write_cost(old, new)

    def write_table(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`write_cost` over all nine ``(old, new)`` transitions,
        as cached read-only 3x3 energy and latency tables
        (:class:`WriteTables`)."""
        return self._write_tables()

    def leakage_power(self, vdd: float) -> float:
        """Whole-array standby power [W] (legacy operand grouping)."""
        a = self._array
        return (
            a.geometry.rows
            * a.geometry.cols
            * a.cell.standby_leakage(vdd)
            * vdd
        )
