"""The pluggable energy-estimator protocol (Accelergy-style).

Historically every joule the array booked came from an inline formula:
the cell descriptor supplied currents and capacitances, and
:class:`~repro.tcam.array.TCAMArray` owned the arithmetic.  Adding a
cell technology therefore meant touching the array.  This module turns
that arithmetic into a small *protocol* -- per-action dynamic energy,
leakage power, and area -- so a new cell is a new estimator, not a new
array implementation.

Three layers:

* :class:`EnergyEstimator` -- the abstract protocol.  An estimator
  names its actions, prices each one (``dynamic_energy``), reports its
  leakage power at a supply, and its area.  This mirrors the
  Accelergy / Timeloop estimator plug-in interface (per-action energy +
  leak + area), scaled down to what the TCAM accounting needs.
* :class:`CellEstimator` -- the adapter that makes every existing
  :class:`~repro.tcam.cell.CellDescriptor` satisfy the protocol without
  modification: write transitions become actions, standby leakage
  becomes leakage power, ``area_f2`` passes through.
* :class:`ArrayEstimator` -- the per-array composite the
  :class:`~repro.tcam.array.TCAMArray` routes **all** of its ledger
  bookings through.  Each method reproduces the array's historical
  inline expression verbatim (same operand grouping), so the estimator
  path is bit-identical to the legacy accounting -- enforced by
  ``tests/energy/test_estimator_equivalence.py``.

Every estimator with a ``write`` action also serves that action as one
cached 3x3 ``(old, new)`` table (:meth:`EnergyEstimator.write_table`),
which every array write path gathers from.

Action vocabulary of the array estimator:

=================== ========================= ==========================
action              parameters                prices
=================== ========================= ==========================
``sl_toggle``       ``n``                     search-line pair toggles
``ml_precharge``    ``v_end``, ``n``          ML restore from ``v_end``
``ml_dissipation``  ``v_end``, ``n``          charge burned in the eval
``sense``           ``v_end``, ``offset``     SA strobe at the endpoint
``sense_idle``      ``n``                     SA internal-node swing
``race``            ``i_total``, ``offset``   current-race evaluation
``encode``          --                        priority encoding
``write``           ``old``, ``new``          one cell's trit transition
=================== ========================= ==========================
"""

from __future__ import annotations

import abc
import math
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..circuits.senseamp import SenseDecision
    from ..tcam.array import TCAMArray
    from ..tcam.cell import CellDescriptor, WriteCost
    from ..tcam.trit import Trit


class EstimatorError(ReproError):
    """An estimator was asked for an action it does not support."""


class EnergyEstimator(abc.ABC):
    """Abstract per-action energy / leakage / area estimator.

    Concrete estimators are cheap views over electrical models; they
    may be constructed freely and compared by the numbers they return.
    Their only state is the cache behind :meth:`write_table`.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Stable identifier (e.g. ``"cell:fefet2t"``)."""

    @abc.abstractmethod
    def actions(self) -> tuple[str, ...]:
        """The action names :meth:`dynamic_energy` accepts."""

    @abc.abstractmethod
    def dynamic_energy(self, action: str, **params) -> float:
        """Dynamic energy of one action [J].

        Raises:
            EstimatorError: for an action outside :meth:`actions`.
        """

    @abc.abstractmethod
    def leakage_power(self, vdd: float) -> float:
        """Static power at the given supply [W]."""

    @abc.abstractmethod
    def area_f2(self) -> float:
        """Area in squared feature sizes [F^2]."""

    def write_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``write`` action priced over all nine ``(old, new)`` trit
        transitions: read-only 3x3 energy [J] and latency [s] tables,
        indexed by the trits' integer codes.

        Built once from nine ``self.write_cost`` calls (so a subclass
        that overrides ``write_cost`` is honoured) and cached on the
        estimator.

        Raises:
            EstimatorError: when the estimator has no ``write`` action.
            ReproError: unless every entry is finite and >= 0 -- the
                check :meth:`EnergyLedger.add` makes on each booking.
        """
        tables = getattr(self, "_write_tables", None)
        if tables is None:
            if "write" not in self.actions():
                raise self._unknown("write")
            from ..tcam.trit import Trit  # runtime import: tcam imports this module

            costs = [self.write_cost(Trit(o), Trit(t)) for o in range(3) for t in range(3)]
            tables = []
            for quantity in ("energy", "latency"):
                values = [getattr(c, quantity) for c in costs]
                if not all(0.0 <= v < math.inf for v in values):  # NaN fails too
                    raise ReproError(
                        f"estimator {self.name!r}: write {quantity} must be "
                        f"non-negative and finite, got {values}"
                    )
                table = np.array(values, dtype=np.float64).reshape(3, 3)
                table.flags.writeable = False
                tables.append(table)
            tables = self._write_tables = tuple(tables)
        return tables

    def _unknown(self, action: str) -> EstimatorError:
        return EstimatorError(
            f"estimator {self.name!r} has no action {action!r}; "
            f"supported: {', '.join(self.actions())}"
        )

    def describe(self) -> dict[str, object]:
        """Summary dict for tables and JSON reports."""
        return {
            "name": self.name,
            "actions": list(self.actions()),
            "area_f2": self.area_f2(),
        }


class CellEstimator(EnergyEstimator):
    """Protocol adapter over one :class:`~repro.tcam.cell.CellDescriptor`.

    Every registered cell satisfies the estimator protocol through this
    class with no change to the descriptor itself: the write path is the
    cell's only self-contained action (search-phase energies depend on
    array context -- those live in :class:`ArrayEstimator`).
    """

    def __init__(self, cell: "CellDescriptor") -> None:
        self._cell = cell

    @property
    def cell(self) -> "CellDescriptor":
        """The wrapped descriptor."""
        return self._cell

    @property
    def name(self) -> str:
        return f"cell:{self._cell.technology}"

    def actions(self) -> tuple[str, ...]:
        return ("write",)

    def write_cost(self, old: "Trit", new: "Trit") -> "WriteCost":
        """Full (energy, latency) cost of one trit transition."""
        return self._cell.write_cost(old, new)

    def dynamic_energy(self, action: str, **params) -> float:
        if action == "write":
            return self._cell.write_cost(params["old"], params["new"]).energy
        raise self._unknown(action)

    def leakage_power(self, vdd: float) -> float:
        """Per-cell standby power ``I_leak(vdd) * vdd`` [W]."""
        return self._cell.standby_leakage(vdd) * vdd

    def area_f2(self) -> float:
        return self._cell.area_f2

    def describe(self) -> dict[str, object]:
        out = super().describe()
        out["technology"] = self._cell.technology
        return out


class ArrayEstimator(EnergyEstimator):
    """Per-array composite estimator: the array's single booking surface.

    Built by :class:`~repro.tcam.array.TCAMArray` at construction (or
    injected through its ``estimator`` argument), it composes the cell
    descriptor with the array's sensing chain (search line, precharge
    scheme, sense/race amplifier, priority encoder).  Each pricing
    method is the array's historical inline expression moved here
    unchanged -- operand order and grouping included -- which is what
    makes the refactor bit-identical (the equivalence suite replays the
    legacy formulas against these).

    The richer typed methods (:meth:`sense`, :meth:`race`,
    :meth:`write_cost`) exist because the array needs the sense
    *decision* (match verdict, delay) alongside the energy; the generic
    :meth:`dynamic_energy` surface delegates to them.
    """

    _ACTIONS = (
        "sl_toggle",
        "ml_precharge",
        "ml_dissipation",
        "sense",
        "sense_idle",
        "race",
        "encode",
        "write",
    )

    def __init__(self, array: "TCAMArray") -> None:
        self._array = array

    @property
    def array(self) -> "TCAMArray":
        """The array this estimator prices."""
        return self._array

    @property
    def name(self) -> str:
        return f"array:{self._array.cell.technology}:{self._array.sensing}"

    def actions(self) -> tuple[str, ...]:
        if self._array.sensing == "precharge":
            return tuple(a for a in self._ACTIONS if a != "race")
        return ("sl_toggle", "race", "encode", "write")

    # -- typed pricing methods (the array's booking surface) ---------------

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

    # -- protocol surface ----------------------------------------------------

    def dynamic_energy(self, action: str, **params) -> float:
        if action not in self.actions():
            raise self._unknown(action)
        if action == "sl_toggle":
            return params.get("n", 1) * self.sl_toggle_energy()
        if action == "ml_precharge":
            return self.ml_precharge_energy(params["v_end"], params.get("n", 1))
        if action == "ml_dissipation":
            return self.ml_dissipation_energy(params["v_end"], params.get("n", 1))
        if action == "sense":
            return self.sense(params["v_end"], params.get("offset", 0.0)).energy
        if action == "sense_idle":
            return self.sense_idle_energy(params.get("n", 1))
        if action == "race":
            return self.race(params["i_total"], params.get("offset", 0.0)).energy
        if action == "encode":
            return self.encode_energy()
        if action == "write":
            return self.write_cost(params["old"], params["new"]).energy
        raise self._unknown(action)  # pragma: no cover - actions() gates above

    def leakage_power(self, vdd: float) -> float:
        """Whole-array standby power [W] (legacy operand grouping)."""
        a = self._array
        return (
            a.geometry.rows
            * a.geometry.cols
            * a.cell.standby_leakage(vdd)
            * vdd
        )

    def area_f2(self) -> float:
        """Total cell area of the array [F^2]."""
        a = self._array
        return a.geometry.rows * a.geometry.cols * a.cell.area_f2

    def describe(self) -> dict[str, object]:
        out = super().describe()
        out["technology"] = self._array.cell.technology
        out["sensing"] = self._array.sensing
        return out
