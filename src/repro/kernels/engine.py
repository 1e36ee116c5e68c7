"""Compiled per-class sensing tables for one array.

The per-key reference search (:mod:`repro.tcam.reference`) integrates
each mismatch class it meets by RK4, per search.  The kernel engine
instead compiles the *entire* class
triangle of the array's electrical configuration into flat per-``driven`` rows of
sensing results -- match verdicts, restore/dissipation/sense energies,
strobe and restore delays -- that survive writes (content never enters
the class physics) and can be gathered with fancy indexing by the
vectorized batch path.

Precharge-style rows are derived from a :class:`WaveformTable` (the
tabulated RK4 endpoints); current-race rows evaluate the race amp's
closed form per class.  Both reuse the array's own per-class helpers
(:meth:`TCAMArray._precharge_class_from_v_end` /
:meth:`TCAMArray._race_class_from_current`), so every tabulated quantity
is the exact object the per-key reference would have computed.  A batch asks
for all of its rows in one :meth:`KernelEngine.rows` call, which builds
every missing row together -- for precharge sensing in one stacked RK4
pass -- under a ``kernels.build_rows`` span.

With a fault map attached, retention-degraded rows carry pull-down
compositions outside the class triangle.  Their sensing results are
compiled on demand, one stacked RK4 pass per batch for the signatures
not seen yet, and cached on the engine until the fault map changes
(:meth:`KernelEngine.fault_classes`).

Counters: ``table_hits`` counts per-key class queries served from the
tables (fault signatures included), ``rk4_fallbacks`` counts class
queries answered by the RK4 reference path (classes whose ``driven``
exceeds the tabulated grid) and ``rows_built`` the compiled rows; the
array delta-syncs all three into the ``MetricsRegistry`` as
``kernels.table_hits`` / ``kernels.rk4_fallbacks`` /
``kernels.rows_built`` at batch boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .. import obs
from ..circuits.matchline import composite_current
from ..errors import KernelError
from .waveform import WaveformTable, as_driven


def class_sums(terms: np.ndarray) -> np.ndarray:
    """Per-row sums of a dense ``(keys, classes)`` term matrix, strictly
    left to right (``np.cumsum`` accumulates sequentially, unlike the
    pairwise ``np.sum`` / ``np.add.reduceat``), so with the absent
    classes' terms at exactly ``0.0`` each row's sum is bit for bit the
    reference's per-class ``acc = acc + x`` loop over its present
    classes.  ``terms`` needs at least one column."""
    return np.cumsum(terms, axis=1)[:, -1]


@dataclass(frozen=True)
class PrechargeClassRow:
    """Per-class sensing results of one ``driven`` value, as flat arrays.

    Entry ``n`` of every field is the corresponding attribute of the
    reference ``_PrechargeClassResult`` for class ``(n, driven)``.
    """

    v_end: np.ndarray
    is_match: np.ndarray
    e_restore: np.ndarray
    e_diss: np.ndarray
    e_sense: np.ndarray
    t_sense: np.ndarray
    t_restore: np.ndarray


@dataclass(frozen=True)
class RaceClassRow:
    """Per-class current-race results of one ``driven`` value."""

    is_match: np.ndarray
    energy: np.ndarray
    delay: np.ndarray


def _row_of(row_type, results: list):
    """Stack per-class result objects into one row of flat arrays."""
    return row_type(**{
        f.name: np.array(
            [getattr(r, f.name) for r in results],
            dtype=bool if f.name == "is_match" else float,
        )
        for f in fields(row_type)
    })


class KernelEngine:
    """Compiled class tables + counters for one :class:`TCAMArray`.

    Args:
        array: The owning array (its electrical configuration is fixed
            at construction, so the tables never need invalidation).
        max_driven: Largest tabulated ``driven_cols``; ``None`` tabulates
            the full triangle up to the array width.  Batches containing
            keys that drive more columns fall back to the RK4 reference
            path for those keys.
    """

    def __init__(self, array, *, max_driven: int | None = None) -> None:
        cols = array.geometry.cols
        if max_driven is None:
            max_driven = cols
        if not 0 <= max_driven <= cols:
            raise KernelError(
                f"max_driven must be in [0, {cols}], got {max_driven}"
            )
        self._array = array
        self.max_driven = int(max_driven)
        self.table_hits = 0
        self.rk4_fallbacks = 0
        self._rows: dict[int, PrechargeClassRow | RaceClassRow] = {}
        self._window_rows: dict[int, np.ndarray] = {}
        self._diss0: dict[int, np.ndarray] = {}
        self._fault_version: int | None = None
        self._fault_classes: dict[tuple, object] = {}
        if array.sensing == "precharge":
            self.waveform: WaveformTable | None = WaveformTable(
                array.c_ml,
                array.cell.i_pulldown,
                array.cell.i_leak,
                array.precharge.target_voltage(),
                array.t_eval,
                max_driven=self.max_driven,
            )
        else:
            self.waveform = None

    # -- table access ------------------------------------------------------

    def in_grid(self, driven: int) -> bool:
        """True when every class of this ``driven`` value is tabulated."""
        return 0 <= driven <= self.max_driven

    @property
    def rows_built(self) -> int:
        """Number of ``driven`` rows compiled so far."""
        return len(self._rows)

    def _check_driven(self, driven) -> int:
        d = as_driven(driven)
        if not self.in_grid(d):
            raise KernelError(
                f"driven {d} outside compiled grid [0, {self.max_driven}]"
            )
        return d

    def rows(self, drivens: Iterable[int]) -> list[PrechargeClassRow | RaceClassRow]:
        """Compiled sensing rows for several ``driven`` values.

        Entry ``i`` is the row of ``drivens[i]``.  The rows not compiled
        yet are built together under one ``kernels.build_rows`` span
        (attributes ``n_rows``, ``n_classes``): precharge endpoints of
        all of them integrate in one stacked RK4 pass
        (:meth:`WaveformTable.rows`), current-race rows evaluate their
        class currents in one array call per row.
        """
        ds = [self._check_driven(d) for d in drivens]
        missing = sorted({d for d in ds if d not in self._rows})
        if missing:
            with obs.span(
                "kernels.build_rows",
                n_rows=len(missing),
                n_classes=sum(d + 1 for d in missing),
            ):
                self._build(missing)
        return [self._rows[d] for d in ds]

    def row(self, driven: int) -> PrechargeClassRow | RaceClassRow:
        """Compiled sensing row for one ``driven`` value (``rows([driven])[0]``)."""
        return self.rows([driven])[0]

    def _build(self, drivens: list[int]) -> None:
        array = self._array
        if array.sensing == "precharge":
            for d, v_ends in zip(drivens, self.waveform.rows(drivens)):
                results = [array._precharge_class_from_v_end(float(v)) for v in v_ends]
                self._store(d, _row_of(PrechargeClassRow, results))
        else:
            v_trip = array.race_amp.v_trip
            cell = array.cell
            for d in drivens:
                n_miss = np.arange(d + 1)
                currents = composite_current(
                    v_trip, cell.i_pulldown, cell.i_leak, n_miss, d - n_miss
                )
                results = [array._race_class_from_current(float(i)) for i in currents]
                self._store(d, _row_of(RaceClassRow, results))

    def _store(self, driven: int, built: PrechargeClassRow | RaceClassRow) -> None:
        for field in vars(built).values():
            field.setflags(write=False)
        self._rows[driven] = built

    def precompute(self, drivens: "range | list[int] | None" = None) -> None:
        """Compile rows eagerly (the whole grid by default), in one pass."""
        if drivens is None:
            drivens = range(self.max_driven + 1)
        self.rows(drivens)

    def fault_classes(self, sigs: list[tuple], fault_version: int) -> dict:
        """Sensing results of retention-degraded pull-down signatures.

        A signature ``(n_strong, weak_offsets, n_leak)`` fixes a row's
        discharge (its sorted weak Vt shifts included), so its result is
        the exact object the per-key faulty search computes for it.  The
        missing signatures integrate in one stacked RK4 pass through the
        array's own fault-class integrator.  Results are electrical, not
        content, so they survive writes; the cache is dropped when the
        fault map's version moves, which bounds it to one map's
        signatures.  Precharge sensing only.
        """
        if fault_version != self._fault_version:
            self._fault_classes = {}
            self._fault_version = fault_version
        cache = self._fault_classes
        missing = [sig for sig in sigs if sig not in cache]
        if missing:
            cache.update(zip(missing, self._array._fault_sig_classes(missing)))
        return {sig: cache[sig] for sig in sigs}

    def window_row(self, driven: int) -> np.ndarray:
        """Crossing-time table for the distance-mode evaluation windows.

        Entry ``n`` is the time for an ``n``-mismatch line (of ``driven``
        driven columns) to cross the sense reference -- float for float
        the value ``repro.tcam.reference._nearest_window`` computes, with
        non-finite crossings clamped to ``t_eval``.  Entry 0 (a full
        match never crosses) is ``t_eval``.  The distance kernel gathers
        nearest/threshold/top-k strobe windows from these rows instead
        of re-deriving them per key.  Precharge sensing only.
        """
        if self._array.sensing != "precharge":
            raise KernelError("window tables apply to precharge-style sensing only")
        driven = self._check_driven(driven)
        cached = self._window_rows.get(driven)
        if cached is not None:
            return cached
        from ..circuits.matchline import MatchLine, MatchLineLoad

        array = self._array
        v_pre = array.precharge.target_voltage()
        v_ref = array.sense_amp.v_ref
        out = np.empty(driven + 1)
        out[0] = array.t_eval
        for n in range(1, driven + 1):
            load = MatchLineLoad(
                capacitance=array.c_ml,
                n_miss=n,
                n_match=max(driven - n, 0),
                i_pulldown=array.cell.i_pulldown,
                i_leak=array.cell.i_leak,
            )
            t_window = MatchLine(load, v_pre, array.vdd).time_to(v_ref)
            out[n] = array.t_eval if not np.isfinite(t_window) else float(t_window)
        out.setflags(write=False)
        self._window_rows[driven] = out
        return out

    def diss0_table(self, n_max: int) -> np.ndarray:
        """Full-discharge dissipation per line count, tabulated 0..n_max.

        Entry ``n`` is exactly ``estimator.ml_dissipation_energy(0.0, n)``
        (same call, same float), so the distance kernels gather
        count-scaled dissipation terms instead of calling the estimator
        per count.  Built once per ``n_max`` (the array's valid-row
        count) and cached with the class tables.
        """
        cached = self._diss0.get(n_max)
        if cached is not None:
            return cached
        est = self._array.estimator
        out = np.array([est.ml_dissipation_energy(0.0, n) for n in range(n_max + 1)])
        out.setflags(write=False)
        self._diss0[n_max] = out
        return out

    def _electrical_signature(self) -> tuple:
        """The parameters the compiled tables depend on (and nothing else)."""
        array = self._array
        cell = array.cell
        sig = (
            array.sensing,
            self.max_driven,
            array.geometry.cols,
            float(array.c_ml),
            # The pull-down / leakage curves are fully determined by the
            # cell's type and parameter set.
            type(cell).__name__,
            repr(cell.params),
            float(array.t_eval),
            float(array.vdd),
        )
        if array.sensing == "precharge":
            sig += (
                float(array.precharge.target_voltage()),
                float(array.sense_amp.v_ref),
            )
        return sig

    def adopt_tables(self, donor: "KernelEngine") -> None:
        """Share the donor engine's compiled tables with this engine.

        The class tables depend only on the array's electrical
        configuration, never on its contents -- so a fleet of identical
        banks (a :class:`~repro.tcam.chip.TCAMChip`, a sharded retrieval
        index) can compile the triangle once and serve every bank from
        it.  The caches are shared *by reference*: a row lazily built
        through any adopting engine becomes visible to all of them.
        Hit/fallback counters stay per-engine.

        Raises:
            KernelError: if the two arrays differ in any parameter the
                tables are derived from (sensing style, grid bound,
                geometry, ML load, cell currents, timing, voltages).
        """
        if donor is self:
            return
        mine, theirs = self._electrical_signature(), donor._electrical_signature()
        if mine != theirs:
            raise KernelError(
                "cannot adopt kernel tables across electrically different "
                f"arrays: {mine} != {theirs}"
            )
        self._rows = donor._rows
        self._window_rows = donor._window_rows
        self._diss0 = donor._diss0
        self.waveform = donor.waveform

    # -- validation / diagnostics -----------------------------------------

    def validate(self, rtol: float = 1e-9) -> float:
        """Validate the waveform table against the scalar RK4 reference.

        Returns the worst relative endpoint error (see
        :meth:`WaveformTable.validate`); current-race tables have no
        integration step and trivially validate at 0.0.
        """
        if self.waveform is None:
            return 0.0
        drivens = sorted(
            d for d in self._rows if isinstance(self._rows[d], PrechargeClassRow)
        )
        return self.waveform.validate(rtol=rtol, drivens=drivens or None)

    def counters(self) -> dict[str, int]:
        """Snapshot of the hit/fallback/build counters."""
        return {
            "table_hits": self.table_hits,
            "rk4_fallbacks": self.rk4_fallbacks,
            "rows_built": self.rows_built,
            "classes_tabulated": (
                self.waveform.classes_tabulated if self.waveform is not None else 0
            ),
        }
