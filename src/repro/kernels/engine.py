"""Compiled per-class sensing tables for one array.

The per-key reference search (:mod:`repro.tcam.reference`) integrates
each mismatch class it meets by RK4, per search.  The kernel engine
instead compiles the class triangle of the array's electrical
configuration -- every ``(n_miss, driven)`` with ``0 <= n_miss <=
driven <= cols`` -- into dense ``(cols + 1) x (cols + 1)`` planes, one
per sensing field (match verdicts, restore/dissipation/sense energies,
strobe and restore delays): ``plane[driven, n_miss]`` is the field of
that class, and entries past a row's triangle read ``0.0`` / ``False``.
The planes survive writes (content never enters the class physics), and
every batch kernel indexes them directly with its per-key ``driven``
and per-row ``n_miss`` arrays -- no kernel pads a table of its own.

Rows are built by the array's own class helpers: precharge endpoints
by its stacked integrator (:meth:`TCAMArray._ml_voltages_after_eval`)
and :meth:`TCAMArray._precharge_class_from_v_end`, current-race rows by
the race amp's closed form (:meth:`TCAMArray._race_class_from_current`),
so every tabulated quantity is the exact object the per-key reference
would have computed.  A batch asks for its rows in one
:meth:`KernelEngine.planes` call, which builds every missing row together
-- for precharge sensing in one stacked RK4 pass -- under a
``kernels.build_rows`` span; :meth:`KernelEngine.windows` does the same
for the precharge distance-mode strobe windows.
:meth:`KernelEngine.validate` re-integrates the compiled precharge
classes one at a time with the scalar RK4 integrator.

With a fault map attached, retention-degraded rows carry pull-down
compositions outside the class triangle.  A signature ``(n_strong,
weak_offsets, n_leak)`` is a per-cell threshold shift, i.e. one more
electrical state of the line, so its sensing result depends on the
signature and the electrical configuration alone -- never on which
fault map produced it.  Results are compiled on demand, one stacked
RK4 pass per batch for the signatures not seen yet, and cached by
signature next to the class planes (:meth:`KernelEngine.fault_classes`):
the cache survives writes and fault-map changes, and engines that
adopt each other's tables share it.

Counters: ``table_hits`` counts per-key class queries served from the
tables (fault signatures included) and ``rows_built`` the compiled
rows; the array delta-syncs both into the ``MetricsRegistry`` as
``kernels.table_hits`` / ``kernels.rows_built`` at batch boundaries.
"""

from __future__ import annotations

from dataclasses import fields
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .. import obs
from ..circuits.matchline import MatchLine, MatchLineLoad, composite_current
from ..circuits.rc import discharge_waveform
from ..errors import KernelError

# Relative-error budget of :meth:`KernelEngine.validate`.
VALIDATION_RTOL = 1e-9


def as_driven(driven) -> int:
    """``driven`` as a Python ``int``; only integers are accepted.

    Raises:
        KernelError: for anything but a Python or NumPy integer (floats
            and booleans included).
    """
    if isinstance(driven, (bool, np.bool_)) or not isinstance(driven, (int, np.integer)):
        raise KernelError(f"driven must be an integer, got {driven!r}")
    return int(driven)


def class_sums(terms: np.ndarray) -> np.ndarray:
    """Per-row sums of a dense ``(keys, classes)`` term matrix, strictly
    left to right (``np.cumsum`` accumulates sequentially, unlike the
    pairwise ``np.sum`` / ``np.add.reduceat``), so with the absent
    classes' terms at exactly ``0.0`` each row's sum is bit for bit the
    reference's per-class ``acc = acc + x`` loop over its present
    classes.  ``terms`` needs at least one column."""
    return np.cumsum(terms, axis=1)[:, -1]


def _read_only(plane: np.ndarray) -> np.ndarray:
    view = plane.view()
    view.setflags(write=False)
    return view


class _ClassPlanes:
    """The dense class planes of one electrical configuration.

    Shared by reference between engines that adopt each other's tables.
    ``built[d]`` marks the compiled rows of the class planes and
    ``window_built[d]`` those of the window plane.  The planes are
    allocated on the first build (an engine that adopts before it builds
    allocates nothing) and handed out only as read-only views.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.built = np.zeros(size, dtype=bool)
        self.window_built = np.zeros(size, dtype=bool)
        self.data: dict[str, np.ndarray] = {}
        self.views: Mapping[str, np.ndarray] = MappingProxyType({})
        self.window: np.ndarray | None = None
        self.window_view: np.ndarray | None = None

    def store(self, driven: np.ndarray, n_miss: np.ndarray, results: list) -> None:
        """Write per-class result objects at ``[driven, n_miss]``."""
        if not self.data:
            self.data = {
                f.name: np.zeros(
                    (self.size, self.size), dtype=bool if f.name == "is_match" else float
                )
                for f in fields(results[0])
            }
            self.views = MappingProxyType(
                {name: _read_only(plane) for name, plane in self.data.items()}
            )
        for name, plane in self.data.items():
            plane[driven, n_miss] = [getattr(r, name) for r in results]
        self.built[driven] = True


class KernelEngine:
    """Compiled class tables + counters for one :class:`TCAMArray`.

    The tables span the full class triangle of the array's width: every
    ``driven`` in ``[0, cols]`` and every ``n_miss`` in ``[0, driven]``.

    Args:
        array: The owning array (its electrical configuration is fixed
            at construction, so the tables never need invalidation).
    """

    # Every class of the array's width is tabulated, so no class query
    # leaves the tables.  Kept as a constant for the host-time tracer
    # (benchmarks/perf/tracer.py), its only reader.
    rk4_fallbacks = 0

    def __init__(self, array) -> None:
        self._array = array
        self.table_hits = 0
        self._planes = _ClassPlanes(array.geometry.cols + 1)
        self._diss0: dict[int, np.ndarray] = {}
        self._fault_classes: dict[tuple, object] = {}

    # -- table access ------------------------------------------------------

    @property
    def rows_built(self) -> int:
        """Number of ``driven`` rows compiled so far."""
        return int(np.count_nonzero(self._planes.built))

    def _missing(self, drivens: Iterable[int], built: np.ndarray) -> list[int]:
        """The distinct ``drivens`` not marked in ``built``, ascending;
        every one is checked before anything is built."""
        cols = self._array.geometry.cols
        ds = set()
        for driven in drivens:
            d = as_driven(driven)
            if not 0 <= d <= cols:
                raise KernelError(f"driven {d} outside the class triangle [0, {cols}]")
            ds.add(d)
        return sorted(d for d in ds if not built[d])

    def planes(self, drivens: Iterable[int]) -> Mapping[str, np.ndarray]:
        """Read-only dense class planes, with the rows of ``drivens`` compiled.

        Plane ``name`` holds at ``[driven, n_miss]`` the attribute
        ``name`` of the reference per-class result (``_PrechargeClassResult``
        or ``_RaceClassResult``) of class ``(n_miss, driven)``; entries
        past a row's triangle read ``0.0`` / ``False``.  The rows not
        compiled yet are built together under one ``kernels.build_rows``
        span (attributes ``n_rows``, ``n_classes``): precharge endpoints
        of all of them integrate in one stacked RK4 pass
        (:meth:`TCAMArray._ml_voltages_after_eval`), current-race rows
        evaluate their class currents in one array call.

        Raises:
            KernelError: for a non-integer ``driven`` or one outside
                ``[0, cols]``; nothing is built then.
        """
        missing = self._missing(drivens, self._planes.built)
        if missing:
            with obs.span(
                "kernels.build_rows",
                n_rows=len(missing),
                n_classes=sum(d + 1 for d in missing),
            ):
                self._build(missing)
        return self._planes.views

    def _build(self, drivens: list[int]) -> None:
        """Compile the rows of ``drivens`` (sorted, distinct) in one pass
        over their stacked ``(n_miss, driven)`` classes."""
        array = self._array
        sizes = np.array(drivens) + 1
        starts = np.cumsum(sizes) - sizes
        driven = np.repeat(drivens, sizes)
        n_miss = np.arange(driven.size) - np.repeat(starts, sizes)
        if array.sensing == "precharge":
            results = [
                array._precharge_class_from_v_end(v)
                for v in array._ml_voltages_after_eval(n_miss, driven)
            ]
        else:
            cell = array.cell
            currents = composite_current(
                array.race_amp.v_trip, cell.i_pulldown, cell.i_leak, n_miss, driven - n_miss
            )
            results = [array._race_class_from_current(float(i)) for i in currents]
        self._planes.store(driven, n_miss, results)

    def precompute(self, drivens: "range | list[int] | None" = None) -> None:
        """Compile rows eagerly (the whole triangle by default), in one pass."""
        if drivens is None:
            drivens = range(self._array.geometry.cols + 1)
        self.planes(drivens)

    def fault_classes(self, sigs: list[tuple]) -> dict:
        """Sensing results of retention-degraded pull-down signatures.

        A signature ``(n_strong, weak_offsets, n_leak)`` fixes a row's
        discharge (its sorted weak Vt shifts included), so its result is
        the exact object the per-key faulty search computes for it.  The
        missing signatures integrate in one stacked RK4 pass through the
        array's own fault-class integrator.  Like the class planes,
        results are electrical: they survive writes and fault-map changes
        (a signature already carries every Vt shift it depends on), and
        adopting engines share them.  Precharge sensing only.
        """
        cache = self._fault_classes
        missing = [sig for sig in sigs if sig not in cache]
        if missing:
            cache.update(zip(missing, self._array._fault_sig_classes(missing)))
        return {sig: cache[sig] for sig in sigs}

    def windows(self, drivens: Iterable[int]) -> np.ndarray:
        """Read-only dense crossing-time plane for the distance-mode
        evaluation windows, with the rows of ``drivens`` compiled.

        Entry ``[driven, n]`` is the time for an ``n``-mismatch line (of
        ``driven`` driven columns) to cross the sense reference -- float
        for float the value ``repro.tcam.reference._nearest_window``
        computes, with non-finite crossings clamped to ``t_eval``.  Entry
        ``[driven, 0]`` (a full match never crosses) is ``t_eval``, and
        entries past a row's triangle read ``0.0``.  The distance kernels
        gather nearest/threshold/top-k strobe windows from this plane
        instead of re-deriving them per key.  Precharge sensing only.

        Raises:
            KernelError: under current-race sensing, or for a ``driven``
                :meth:`planes` rejects.
        """
        array = self._array
        if array.sensing != "precharge":
            raise KernelError("window tables apply to precharge-style sensing only")
        planes = self._planes
        missing = self._missing(drivens, planes.window_built)
        if missing and planes.window is None:
            planes.window = np.zeros((planes.size, planes.size))
            planes.window_view = _read_only(planes.window)
        v_pre = array.precharge.target_voltage()
        v_ref = array.sense_amp.v_ref
        for driven in missing:
            row = planes.window[driven]
            row[0] = array.t_eval
            for n in range(1, driven + 1):
                load = MatchLineLoad(
                    capacitance=array.c_ml,
                    n_miss=n,
                    n_match=max(driven - n, 0),
                    i_pulldown=array.cell.i_pulldown,
                    i_leak=array.cell.i_leak,
                )
                t_window = MatchLine(load, v_pre, array.vdd).time_to(v_ref)
                row[n] = array.t_eval if not np.isfinite(t_window) else float(t_window)
            planes.window_built[driven] = True
        return planes.window_view

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
        banks (the banks of a :class:`~repro.cluster.fabric.TCAMFabric`,
        a sharded retrieval index, the instances of a fault-campaign
        trial) can compile the triangle once and serve every bank from
        it.  The class and window planes, the dissipation tables and the
        fault-signature cache are shared *by reference*: a row lazily
        built through any adopting engine becomes visible to all of them.
        Hit counters stay per-engine.

        Raises:
            KernelError: if the two arrays differ in any parameter the
                tables are derived from (sensing style, geometry, ML load,
                cell currents, timing, voltages).
        """
        if donor is self:
            return
        mine, theirs = self._electrical_signature(), donor._electrical_signature()
        if mine != theirs:
            raise KernelError(
                "cannot adopt kernel tables across electrically different "
                f"arrays: {mine} != {theirs}"
            )
        self._planes = donor._planes
        self._diss0 = donor._diss0
        self._fault_classes = donor._fault_classes

    # -- validation / diagnostics -----------------------------------------

    def _built_drivens(self) -> list[int]:
        return np.flatnonzero(self._planes.built).tolist()

    def validate(self) -> float:
        """Check the compiled precharge classes against the scalar RK4 reference.

        Every class ``(n, d)`` of every compiled precharge row (of the
        full triangle when no row is compiled yet) is re-integrated alone
        with :func:`~repro.circuits.rc.discharge_waveform` and compared
        with ``v_end[d, n]``.  Returns the worst relative error and
        raises :class:`KernelError` when it exceeds
        :data:`VALIDATION_RTOL`.  The stacked integrator and the numpy
        device model are elementwise identical to a lone scalar class,
        so the expected error is exactly 0.0; the budget bounds how far
        the sensing decisions could drift before the check fails.
        Current-race rows have no integration step and validate at 0.0.
        """
        array = self._array
        if array.sensing != "precharge":
            return 0.0
        if not self.rows_built:
            self.precompute()
        cell = array.cell
        v_pre = array.precharge.target_voltage()
        grid = array._eval_grid()
        v_end = self._planes.data["v_end"]
        worst = 0.0
        for d in self._built_drivens():
            for n_miss, got in enumerate(v_end[d, : d + 1].tolist()):
                expected = float(
                    discharge_waveform(
                        array.c_ml,
                        lambda v, m=n_miss: composite_current(
                            v, cell.i_pulldown, cell.i_leak, m, d - m
                        ),
                        v_pre,
                        grid,
                    )[-1]
                )
                worst = max(worst, abs(got - expected) / max(abs(expected), 1e-30))
        if worst > VALIDATION_RTOL:
            raise KernelError(
                f"compiled tables diverged from the RK4 reference: worst "
                f"relative error {worst:.3e} exceeds {VALIDATION_RTOL:.1e}"
            )
        return worst

    def counters(self) -> dict[str, int]:
        """Snapshot of the hit/build counters."""
        precharge = self._array.sensing == "precharge"
        return {
            "table_hits": self.table_hits,
            "rows_built": self.rows_built,
            "classes_tabulated": sum(d + 1 for d in self._built_drivens()) if precharge else 0,
        }
