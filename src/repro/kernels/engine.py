"""Compiled per-class sensing tables for one array.

The legacy batch engine integrates each distinct mismatch class per
batch (memoized in the LRU trajectory cache, which every write flushes).
The kernel engine instead compiles the *entire* class triangle of the
array's electrical configuration into flat per-``driven`` rows of
sensing results -- match verdicts, restore/dissipation/sense energies,
strobe and restore delays -- that survive writes (content never enters
the class physics) and can be gathered with fancy indexing by the
vectorized batch path.

Precharge-style rows are derived from a :class:`WaveformTable` (the
tabulated RK4 endpoints); current-race rows evaluate the race amp's
closed form per class.  Both reuse the array's own per-class helpers
(:meth:`TCAMArray._precharge_class_from_v_end` /
:meth:`TCAMArray._race_class`), so every tabulated quantity is the
exact object the scalar search would have computed.

With a fault map attached, retention-degraded rows carry pull-down
compositions outside the class triangle.  Their sensing results are
compiled on demand, one stacked RK4 pass per batch for the signatures
not seen yet, and cached on the engine until the fault map changes
(:meth:`KernelEngine.fault_classes`).

Counters: ``table_hits`` counts per-key class queries served from the
tables (fault signatures included), ``rk4_fallbacks`` counts class
queries answered by the RK4 reference path (classes whose ``driven``
exceeds the tabulated grid); the array delta-syncs both into the
``MetricsRegistry`` as ``kernels.table_hits`` / ``kernels.rk4_fallbacks``
at batch boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from .waveform import WaveformTable


def sequential_segment_sum(
    flat: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per-segment sums with strictly left-to-right accumulation.

    ``np.add.reduceat`` switches to unrolled/pairwise accumulation for
    longer segments, which is *not* bit-identical to the sequential
    ``acc = acc + x`` loop the legacy ledger performs.  This helper
    accumulates round-robin instead -- round ``r`` adds the ``r``-th
    element of every still-open segment in one vectorized gather -- so
    each segment's sum is exactly ``((0.0 + x0) + x1) + ...`` while the
    Python-level loop count is the *longest* segment, not the total
    element count.
    """
    acc = np.zeros(starts.size)
    pos = np.array(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    open_idx = np.flatnonzero(pos < ends)
    while open_idx.size:
        acc[open_idx] += flat[pos[open_idx]]
        pos[open_idx] += 1
        open_idx = open_idx[pos[open_idx] < ends[open_idx]]
    return acc


@dataclass(frozen=True)
class PrechargeClassRow:
    """Per-class sensing results of one ``driven`` value, as flat arrays.

    Entry ``n`` of every field is the corresponding attribute of the
    legacy ``_PrechargeClassResult`` for class ``(n, driven)``.
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

    def row(self, driven: int) -> PrechargeClassRow | RaceClassRow:
        """Compiled sensing row for one ``driven`` value (built lazily)."""
        if not self.in_grid(driven):
            raise KernelError(
                f"driven {driven} outside compiled grid [0, {self.max_driven}]"
            )
        cached = self._rows.get(driven)
        if cached is not None:
            return cached
        array = self._array
        n = driven + 1
        if array.sensing == "precharge":
            v_ends = self.waveform.row(driven)
            fields = {
                name: np.empty(n)
                for name in ("v_end", "e_restore", "e_diss", "e_sense", "t_sense", "t_restore")
            }
            is_match = np.empty(n, dtype=bool)
            for k in range(n):
                res = array._precharge_class_from_v_end(float(v_ends[k]))
                fields["v_end"][k] = res.v_end
                fields["e_restore"][k] = res.e_restore
                fields["e_diss"][k] = res.e_diss
                fields["e_sense"][k] = res.e_sense
                fields["t_sense"][k] = res.t_sense
                fields["t_restore"][k] = res.t_restore
                is_match[k] = res.is_match
            built: PrechargeClassRow | RaceClassRow = PrechargeClassRow(
                is_match=is_match, **fields
            )
        else:
            is_match = np.empty(n, dtype=bool)
            energy = np.empty(n)
            delay = np.empty(n)
            for k in range(n):
                res = array._race_class(k, driven)
                is_match[k] = res.is_match
                energy[k] = res.energy
                delay[k] = res.delay
            built = RaceClassRow(is_match=is_match, energy=energy, delay=delay)
        for field in vars(built).values():
            field.setflags(write=False)
        self._rows[driven] = built
        return built

    def precompute(self, drivens: "range | list[int] | None" = None) -> None:
        """Compile rows eagerly (the whole grid by default)."""
        if drivens is None:
            drivens = range(self.max_driven + 1)
        for d in drivens:
            self.row(int(d))

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
        the value ``TCAMArray._nearest_window_cached`` computes, with
        non-finite crossings clamped to ``t_eval``.  Entry 0 (a full
        match never crosses) is ``t_eval``.  The distance kernel gathers
        nearest/threshold/top-k strobe windows from these rows instead
        of re-deriving them per key.  Precharge sensing only.
        """
        if self._array.sensing != "precharge":
            raise KernelError("window tables apply to precharge-style sensing only")
        if not self.in_grid(driven):
            raise KernelError(
                f"driven {driven} outside compiled grid [0, {self.max_driven}]"
            )
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
