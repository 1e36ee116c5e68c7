"""The TCAM array: search and write with full energy/delay accounting.

A :class:`TCAMArray` holds ``rows`` ternary words of ``cols`` trits in a
given cell technology and executes the two TCAM operations:

* :meth:`TCAMArray.search` -- parallel compare of a key against every row.
  Rows are grouped by their mismatch count (all rows with ``n`` conducting
  cells share identical match-line dynamics), each group's ML trajectory is
  integrated once, and the per-component energies are booked into an
  :class:`~repro.energy.accounting.EnergyLedger`.
* :meth:`TCAMArray.write` -- replace one stored word, paying the cell
  technology's per-trit transition costs.

Two sensing styles are supported (``sensing="precharge"`` and
``sensing="current_race"``), covering the conventional NOR scheme and the
precharge-free scheme of Design CR.  The match decision is *physical*: the
sensed ML voltage is compared by the sense amplifier, so an under-margined
configuration really does return wrong matches (exploited by the failure-
injection tests and the Monte-Carlo yield analysis).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..circuits.matchline import MatchLine, MatchLineLoad
from ..circuits.precharge import FullSwingPrecharge, PrechargeScheme
from ..circuits.rc import discharge_waveform_batch
from ..circuits.searchline import SearchLine, count_toggles
from ..circuits.senseamp import CurrentRaceSenseAmp, VoltageSenseAmp
from ..circuits.wire import M2_WIRE, M4_WIRE, WireModel
from ..energy.accounting import EnergyComponent, EnergyLedger
from ..energy.estimator import ArrayEstimator
from ..errors import TCAMError
from ..faults.faultmap import FaultKind, FaultMap
from ..parallel import (
    chunk_bounds,
    default_chunk_size,
    resolve_workers,
    scatter_gather,
    scatter_gather_shared,
)
from .area import TECH_45NM, TechNode, cell_dimensions
from .cell import CellDescriptor
from .mlcache import TrajectoryCache
from .outcome import BaseOutcome
from .priority import PriorityEncoder
from .trit import (
    TernaryWord,
    Trit,
    drive_matrix,
    drive_vector,
    mismatch_counts,
    mismatch_counts_batch,
    pack_keys,
)

_SENSING_STYLES = ("precharge", "current_race")

# Canonical component keys, pre-resolved for the distance-kernel ledger
# assembly (EnergyLedger._from_booked takes plain strings).
_SL = EnergyComponent.SEARCHLINE.value
_PRE = EnergyComponent.ML_PRECHARGE.value
_DISS = EnergyComponent.ML_DISSIPATION.value
_SA = EnergyComponent.SENSE_AMP.value
_ENC = EnergyComponent.PRIORITY_ENCODER.value
_LEAK = EnergyComponent.LEAKAGE.value

# Ledger component -> per-phase child span of one traced search.  Every
# component a search can book appears here, so a traced span tree carries
# the outcome ledger's exact component map (the span-sum invariant).
_SPAN_ENERGY_GROUPS = {
    EnergyComponent.SEARCHLINE.value: "array.sl_drive",
    EnergyComponent.ML_PRECHARGE.value: "array.ml",
    EnergyComponent.ML_DISSIPATION.value: "array.ml",
    EnergyComponent.SENSE_AMP.value: "array.sense",
    EnergyComponent.RACE_SOURCE.value: "array.sense",
    EnergyComponent.PRIORITY_ENCODER.value: "array.encode",
    EnergyComponent.LEAKAGE.value: "array.standby",
}


def _integrate_class_chunk(
    payload: tuple["TCAMArray", list[tuple[int, int]]],
) -> list["_PrechargeClassResult | _RaceClassResult"]:
    """Integrate one chunk of mismatch classes (pure worker fn).

    The worker operates on a pickled copy of the array and returns the
    sensing results; the parent installs them into the *real* trajectory
    cache in the order :meth:`TCAMArray._fill_class_cache` would have.
    """
    array, pairs = payload
    if array.sensing == "precharge":
        v_ends = array._ml_voltages_after_eval(pairs)
        return [array._precharge_class_from_v_end(v) for v in v_ends]
    return [array._race_class(n_miss, driven) for n_miss, driven in pairs]


def _assemble_chunk_shared(views, meta) -> list["SearchOutcome"]:
    """Assemble one chunk of batch outcomes (pure shared-transport worker).

    The bulk per-key state -- mismatch matrix, dense per-class count
    matrices, toggle/driven vectors and the active mask -- arrives as
    read-only shared-memory ``views``; the pickled ``meta`` carries only
    the array model, the chunk's class results and its key bounds.  The
    per-key ``unique`` class vector is rebuilt from the dense counts:
    classes whose active *and* valid counts are both zero are dropped,
    which is outcome-identical because :meth:`TCAMArray._assemble_outcome`
    skips zero-count entries in every loop.  The worker never touches a
    trajectory cache, so re-running it (serial fallback) has no side
    effects.
    """
    array, e_toggle, class_results_by_pair, lo, hi = meta
    active = views["active"]
    outcomes = []
    for k in range(lo, hi):
        dense_active = views["counts_active"][k]
        dense_valid = views["counts_valid"][k]
        unique = np.flatnonzero((dense_active != 0) | (dense_valid != 0))
        driven = int(views["driven"][k])
        class_results = {
            int(n): class_results_by_pair[(int(n), driven)]
            for n, c in zip(unique, dense_active[unique])
            if c
        }
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, int(views["toggles"][k]) * e_toggle)
        outcomes.append(
            array._assemble_outcome(
                ledger,
                views["miss"][k],
                active,
                unique,
                dense_active[unique],
                dense_valid[unique],
                class_results,
            )
        )
    return outcomes


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical shape of an array.

    Attributes:
        rows: Number of stored words.
        cols: Trits per word.
        node: Technology node (sets feature size and nominal VDD).
    """

    rows: int
    cols: int
    node: TechNode = TECH_45NM

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise TCAMError(f"array must be at least 1x1, got {self.rows}x{self.cols}")


@dataclass(frozen=True)
class SearchOutcome(BaseOutcome):
    """Everything one search returns.

    Attributes:
        match_mask: Per-row physical match verdicts (invalid rows masked).
        first_match: Lowest matching row index, or ``None``.
        energy: Per-component energy ledger for this search [J].
        search_delay: Key-to-result latency [s].
        cycle_time: Minimum time before the next search can issue [s]
            (includes ML restore for precharge-style sensing).
        miss_histogram: ``{mismatch_count: row_count}`` over valid rows.
        functional_errors: Rows whose physical verdict disagrees with the
            logical ternary match (0 in a healthy design).
    """

    match_mask: np.ndarray
    first_match: int | None
    energy: EnergyLedger
    search_delay: float
    cycle_time: float
    miss_histogram: dict[int, int]
    functional_errors: int

    def _extra_dict(self) -> dict:
        return {
            "miss_histogram": {int(k): int(v) for k, v in self.miss_histogram.items()},
            "functional_errors": int(self.functional_errors),
        }


@dataclass(frozen=True)
class _PrechargeClassResult:
    """Per-mismatch-class sensing results for precharge-style search.

    One instance covers every row sharing ``(n_miss, driven_cols)``: the
    trajectory endpoint, the sense decision derived from it and the
    per-line restore costs.  These are exactly the quantities the scalar
    search recomputes per class per search; the batch engine computes
    them once per class per batch (and caches them across batches).
    """

    v_end: float
    is_match: bool
    e_restore: float
    e_diss: float
    e_sense: float
    t_sense: float
    t_restore: float


@dataclass(frozen=True)
class _RaceClassResult:
    """Per-mismatch-class results for current-race search."""

    is_match: bool
    energy: float
    delay: float


@dataclass(frozen=True)
class NearestMatchOutcome(BaseOutcome):
    """Result of an approximate (best-match) search.

    Attributes:
        row: Row with the fewest mismatching cells, or ``None`` when the
            array holds no valid rows.
        distance: That row's mismatch count.
        energy: Ledger for the operation [J].
        search_delay: Time until the winner is distinguishable [s].
    """

    row: int | None
    distance: int
    energy: EnergyLedger
    search_delay: float

    @property
    def match_mask(self) -> None:
        """Per-row verdicts are not modeled in best-match mode."""
        return None

    @property
    def first_match(self) -> int | None:
        """Canonical alias for :attr:`row`."""
        return self.row

    @property
    def cycle_time(self) -> float:
        """The full evaluation window is the cycle in best-match mode."""
        return self.search_delay

    def _extra_dict(self) -> dict:
        return {"row": self.row, "distance": int(self.distance)}


@dataclass(frozen=True)
class ThresholdMatchOutcome(BaseOutcome):
    """Result of a tolerance (threshold) search.

    TAP-CAM-style approximate matching: the sense strobe is delayed just
    long enough for the first *excluded* mismatch class
    (``max_distance + 1``) to cross the reference, so every valid row
    within ``max_distance`` mismatches reads as a match.

    Attributes:
        match_mask: Valid rows within ``max_distance`` mismatches.
        first_match: Lowest accepted row index, or ``None``.
        n_matches: Number of accepted rows.
        max_distance: The tolerance the search ran at.
        energy: Ledger for the operation [J].
        search_delay: Key-to-verdict latency [s].
    """

    match_mask: np.ndarray
    first_match: int | None
    n_matches: int
    max_distance: int
    energy: EnergyLedger
    search_delay: float

    @property
    def cycle_time(self) -> float:
        """The delayed-strobe window is the cycle in tolerance mode."""
        return self.search_delay

    def _extra_dict(self) -> dict:
        return {
            "n_matches": int(self.n_matches),
            "max_distance": int(self.max_distance),
        }


@dataclass(frozen=True)
class TopKMatchOutcome(BaseOutcome):
    """Result of a k-nearest (top-k) associative search.

    Attributes:
        rows: Up to ``k`` row indices in priority order (ascending
            mismatch distance, ties broken by row index).
        distances: Mismatch count of each returned row.
        k: The requested result count.
        energy: Ledger for the operation [J].
        search_delay: Key-to-last-result latency [s] (the priority
            encoder drains the winners sequentially).
    """

    rows: tuple[int, ...]
    distances: tuple[int, ...]
    k: int
    energy: EnergyLedger
    search_delay: float

    @property
    def match_mask(self) -> None:
        """Per-row verdicts are not modeled in top-k mode."""
        return None

    @property
    def first_match(self) -> int | None:
        """The nearest returned row (priority order), or ``None``."""
        return self.rows[0] if self.rows else None

    @property
    def cycle_time(self) -> float:
        """The full drain of the k winners is the cycle in top-k mode."""
        return self.search_delay

    def _extra_dict(self) -> dict:
        return {
            "rows": [int(r) for r in self.rows],
            "distances": [int(d) for d in self.distances],
            "k": int(self.k),
        }


@dataclass(frozen=True)
class WriteOutcome:
    """Result of writing one word.

    Attributes:
        row: Row written.
        energy: Ledger holding the write energy.
        latency: Write latency [s] (cells within a word write in parallel).
        cells_changed: Number of cells whose trit actually changed.
    """

    row: int
    energy: EnergyLedger
    latency: float
    cells_changed: int


class TCAMArray:
    """One TCAM array instance.

    Args:
        cell: Electrical descriptor of the cell technology.
        geometry: Rows/cols/node.
        sensing: ``"precharge"`` (NOR, precharge-high) or
            ``"current_race"`` (precharge-free, Design CR).
        vdd: Array supply [V]; defaults to the node's nominal.
        precharge: Precharge scheme for precharge-style sensing; defaults
            to a full-swing scheme at ``vdd``.
        sense_amp: Voltage sense amp; defaults to a latch referenced at
            half the precharge target.
        race_amp: Current-race sense amp for ``current_race`` sensing.
        t_eval: Evaluation window [s]; defaults to 2x the worst-case
            single-mismatch discharge time (a standard timing margin).
        ml_wire: Match-line routing layer.
        sl_wire: Search-line routing layer.
        encoder: Priority encoder; defaults to one sized for ``rows``.
        estimator: Energy estimator every ledger booking routes through;
            defaults to an :class:`~repro.energy.estimator.ArrayEstimator`
            over this array's cell and sensing chain (bit-identical to
            the historical inline accounting).  Pass a factory to study
            alternative cost models without touching the physics.
        use_kernel: Enable the compiled search kernel (tabulated
            discharge endpoints + SoA batch state, see
            :mod:`repro.kernels`) for ``search_batch``; equivalent to
            calling :meth:`enable_kernel` after construction.  The
            scalar :meth:`search` always keeps the reference path.
    """

    def __init__(
        self,
        cell: CellDescriptor,
        geometry: ArrayGeometry,
        *,
        sensing: str = "precharge",
        vdd: float | None = None,
        precharge: PrechargeScheme | None = None,
        sense_amp: VoltageSenseAmp | None = None,
        race_amp: CurrentRaceSenseAmp | None = None,
        t_eval: float | None = None,
        ml_wire: WireModel = M2_WIRE,
        sl_wire: WireModel = M4_WIRE,
        encoder: PriorityEncoder | None = None,
        estimator: "Callable[[TCAMArray], ArrayEstimator] | None" = None,
        use_kernel: bool = False,
    ) -> None:
        if sensing not in _SENSING_STYLES:
            raise TCAMError(f"sensing must be one of {_SENSING_STYLES}, got {sensing!r}")
        self.cell = cell
        self.geometry = geometry
        self.sensing = sensing
        self.vdd = vdd if vdd is not None else geometry.node.vdd_nominal
        if self.vdd <= 0.0:
            raise TCAMError(f"vdd must be positive, got {self.vdd}")

        rows, cols = geometry.rows, geometry.cols
        self._stored = np.full((rows, cols), int(Trit.X), dtype=np.int8)
        self._valid = np.zeros(rows, dtype=bool)
        self._write_counts = np.zeros((rows, cols), dtype=np.int64)
        self._last_drive: tuple[int, ...] | None = None
        self._ml_cache = TrajectoryCache()
        self._faults: FaultMap | None = None
        self._faults_seen_version = -1
        self._faults_empty = True
        # Compiled-kernel state: the engine compiles per-class sensing
        # tables that survive writes; the SoA snapshot tracks stored
        # content through this version counter (bumped by every write /
        # invalidate / fault-map change).
        self._content_version = 0
        self._kernel = None
        self._soa = None

        cell_w, cell_h = cell_dimensions(cell.area_f2, geometry.node)
        self.cell_width = cell_w
        self.cell_height = cell_h

        # Sensing chain -----------------------------------------------------
        if sensing == "precharge":
            self.precharge = precharge if precharge is not None else FullSwingPrecharge(self.vdd)
            v_pre = self.precharge.target_voltage()
            self.sense_amp = (
                sense_amp if sense_amp is not None else VoltageSenseAmp(v_ref=0.5 * v_pre, vdd=self.vdd)
            )
            if not 0.0 < self.sense_amp.v_ref < v_pre:
                raise TCAMError(
                    f"sense reference {self.sense_amp.v_ref} V outside (0, {v_pre}) V"
                )
            self.race_amp = None
            sa_input_cap = self.sense_amp.input_capacitance
        else:
            self.race_amp = race_amp if race_amp is not None else CurrentRaceSenseAmp(vdd=self.vdd)
            self.precharge = None
            self.sense_amp = None
            sa_input_cap = self.race_amp.input_capacitance

        # Match-line capacitance ---------------------------------------------
        ml_length = cols * cell_w
        self.c_ml = (
            cols * cell.c_ml_per_cell
            + ml_wire.capacitance(ml_length)
            + sa_input_cap
            + 0.1e-15  # precharge / race-source device junction
        )
        self._ml_wire = ml_wire

        # Search lines -------------------------------------------------------
        self.search_line = SearchLine(
            n_rows=rows,
            c_gate_per_cell=cell.c_sl_gate_per_cell,
            cell_pitch=cell_h,
            wire=sl_wire,
        )
        self._sl_r_driver = 2.0e3  # sized driver for the SL RC
        self.encoder = encoder if encoder is not None else PriorityEncoder(rows)

        # Evaluation window ---------------------------------------------------
        if sensing == "precharge":
            self.t_eval = t_eval if t_eval is not None else self._default_t_eval()
            if self.t_eval <= 0.0:
                raise TCAMError(f"t_eval must be positive, got {self.t_eval}")
        else:
            self.t_eval = self.race_amp.cutoff_time(self.c_ml)

        # Energy protocol -----------------------------------------------------
        # Every ledger booking below goes through this estimator; the
        # default reproduces the historical inline formulas bit for bit.
        self.estimator = ArrayEstimator(self) if estimator is None else estimator(self)

        if use_kernel:
            self.enable_kernel()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def _default_t_eval(self) -> float:
        """2x the single-mismatch crossing time (worst-case row)."""
        load = MatchLineLoad(
            capacitance=self.c_ml,
            n_miss=1,
            n_match=self.geometry.cols - 1,
            i_pulldown=self.cell.i_pulldown,
            i_leak=self.cell.i_leak,
        )
        line = MatchLine(load, self.precharge.target_voltage(), self.vdd)
        t_cross = line.time_to(self.sense_amp.v_ref)
        if not np.isfinite(t_cross):
            raise TCAMError(
                "single-mismatch line never crosses the sense reference; "
                "the cell's pull-down is too weak for this configuration"
            )
        return 2.0 * t_cross

    @property
    def rows(self) -> int:
        """Number of stored words."""
        return self.geometry.rows

    @property
    def cols(self) -> int:
        """Trits per word."""
        return self.geometry.cols

    @property
    def sl_settle_delay(self) -> float:
        """Search-line settling delay [s]."""
        return self.search_line.settle_delay(self._sl_r_driver)

    def stored_matrix(self) -> np.ndarray:
        """Copy of the stored trit encodings (rows x cols int8)."""
        return self._stored.copy()

    def word_at(self, row: int) -> TernaryWord:
        """The stored word at ``row``."""
        self._check_row(row)
        return TernaryWord(self._stored[row])

    def valid_mask(self) -> np.ndarray:
        """Copy of the per-row valid bits."""
        return self._valid.copy()

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.geometry.rows:
            raise TCAMError(f"row {row} outside [0, {self.geometry.rows})")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def write(self, row: int, word: TernaryWord) -> WriteOutcome:
        """Store ``word`` at ``row``, paying per-cell transition costs.

        Cache-invalidation rule: every write flushes the match-line
        trajectory cache used by :meth:`search_batch` and
        :meth:`nearest_match_batch`.  The cached trajectories depend only
        on the mismatch class and the electrical configuration (which is
        fixed at construction), so this is conservative -- but it makes
        staleness structurally impossible and costs one dict clear.  The
        same flush runs on :meth:`invalidate` and (via the per-row writes)
        :meth:`load`.
        """
        self._check_row(row)
        self._ml_cache.invalidate()
        self._content_version += 1
        if len(word) != self.geometry.cols:
            raise TCAMError(
                f"word width {len(word)} does not match array cols {self.geometry.cols}"
            )
        ledger = EnergyLedger()
        latency = 0.0
        changed = 0
        new = word.as_array()
        for col in range(self.geometry.cols):
            old_trit = Trit(int(self._stored[row, col]))
            new_trit = Trit(int(new[col]))
            cost = self.estimator.write_cost(old_trit, new_trit)
            ledger.add(EnergyComponent.WRITE, cost.energy)
            latency = max(latency, cost.latency)
            if old_trit is not new_trit:
                changed += 1
                self._write_counts[row, col] += 1
        self._stored[row] = new
        self._valid[row] = True
        m = obs.metrics()
        if m is not None:
            m.counter("tcam.writes").inc()
            m.counter("tcam.cells_changed").inc(changed)
            m.counter("energy.write").inc(ledger.total)
        return WriteOutcome(row=row, energy=ledger, latency=latency, cells_changed=changed)

    def invalidate(self, row: int) -> None:
        """Remove ``row`` from match participation (erase to all-X).

        Flushes the trajectory cache, like :meth:`write`.
        """
        self._check_row(row)
        self._ml_cache.invalidate()
        self._content_version += 1
        self._stored[row] = int(Trit.X)
        self._valid[row] = False

    def load(self, words: list[TernaryWord], start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows; return total energy."""
        if start_row + len(words) > self.geometry.rows:
            raise TCAMError(
                f"cannot load {len(words)} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        ledger = EnergyLedger()
        for offset, word in enumerate(words):
            ledger.merge(self.write(start_row + offset, word).energy)
        return ledger

    def load_rows(
        self, words: Sequence[TernaryWord], start_row: int = 0
    ) -> EnergyLedger:
        """Bulk-write ``words`` into consecutive rows with one cache flush.

        Ledger-identical to :meth:`load` (the same per-cell transition
        costs accumulate in the same row-major order), but the trajectory
        cache flushes once and ``_content_version`` moves once for the
        whole corpus instead of once per row -- the difference between
        one SoA/kernel rebuild and 100k of them when a retrieval corpus
        loads.  The per-cell costs come from the estimator's 3x3
        ``(old, new)`` transition table gathered over the block.
        """
        words = list(words)
        n_rows = len(words)
        if start_row + n_rows > self.geometry.rows:
            raise TCAMError(
                f"cannot load {n_rows} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        ledger = EnergyLedger()
        if n_rows == 0:
            return ledger
        for word in words:
            if len(word) != self.geometry.cols:
                raise TCAMError(
                    f"word width {len(word)} does not match array cols "
                    f"{self.geometry.cols}"
                )
        self._ml_cache.invalidate()
        self._content_version += 1
        cols = self.geometry.cols
        new = np.stack([w.as_array() for w in words])
        block = slice(start_row, start_row + n_rows)
        old = self._stored[block]
        # The estimator prices only nine distinct trit transitions.
        e_tab = np.empty((3, 3), dtype=np.float64)
        for o in range(3):
            for t in range(3):
                e_tab[o, t] = self.estimator.write_cost(Trit(o), Trit(t)).energy
        cell_e = e_tab[old, new]
        from ..kernels import sequential_segment_sum

        starts = np.arange(n_rows, dtype=np.int64) * cols
        row_e = sequential_segment_sum(cell_e.ravel(), starts, starts + cols)
        changed = old != new
        total_changed = int(np.count_nonzero(changed))
        self._write_counts[block][changed] += 1
        self._stored[block] = new
        self._valid[block] = True
        for e in row_e:
            ledger.add(EnergyComponent.WRITE, float(e))
        m = obs.metrics()
        if m is not None:
            m.counter("tcam.writes").inc(n_rows)
            m.counter("tcam.cells_changed").inc(total_changed)
            m.counter("energy.write").inc(ledger.total)
        return ledger

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def attach_faults(self, faults: FaultMap | None) -> None:
        """Attach a defect map; searches then run the fault-injected path.

        Faulty cells perturb the match-line discharge itself (their
        pull-down composition feeds the same RK4 integration healthy
        rows use), so faults manifest as wrong *sensed* decisions, not
        output bit-flips.  An **empty** map is equivalent to no map:
        the search path taken is the ordinary one, bit for bit.  With
        the kernel enabled, batches take the fault-aware kernel; the
        per-key :meth:`_search_impl_faulty` stays the reference.

        Cache rule: attaching (and any later mutation of the attached
        map, detected through :attr:`FaultMap.version`) flushes the
        trajectory cache, and fault-class entries additionally carry
        the map version in their keys -- stale trajectories are
        structurally impossible.

        Args:
            faults: The defect map (array-shaped), or ``None`` to detach.
        """
        if faults is not None and (faults.rows, faults.cols) != (
            self.geometry.rows,
            self.geometry.cols,
        ):
            raise TCAMError(
                f"fault map {faults.rows}x{faults.cols} does not match array "
                f"{self.geometry.rows}x{self.geometry.cols}"
            )
        self._faults = faults
        if faults is None:
            self._faults_seen_version = -1
            self._faults_empty = True
        else:
            self._faults_seen_version = faults.version
            self._faults_empty = faults.is_empty()
        self._ml_cache.invalidate()
        self._content_version += 1

    def detach_faults(self) -> None:
        """Remove the attached defect map (flushes the trajectory cache)."""
        self.attach_faults(None)

    @property
    def faults(self) -> FaultMap | None:
        """The attached defect map, or ``None``."""
        return self._faults

    def _fault_injection_active(self) -> bool:
        """True when a non-empty fault map must shape the next search.

        Re-inspects the attached map when its version counter moved
        (in-place mutation after attach) and flushes the trajectory
        cache once per such change.
        """
        fm = self._faults
        if fm is None:
            return False
        if fm.version != self._faults_seen_version:
            self._ml_cache.invalidate()
            self._content_version += 1
            self._faults_seen_version = fm.version
            self._faults_empty = fm.is_empty()
        return not self._faults_empty

    def _fault_row_composition(
        self, key_arr: np.ndarray, driven: np.ndarray, eff_stored: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell pull-down / weakened-pull-down masks under faults.

        A cell pulls its match line down when it (a) mismatches on the
        hardware's effective content and its pull-down path is intact
        (not ``STUCK_MATCH``), or (b) is ``STUCK_MISS`` and its column
        is driven.  ``RETENTION`` pull-downs conduct through a shifted
        threshold (the ``weak`` mask).
        """
        kind = self._faults.kind
        x = int(Trit.X)
        mism = (
            driven[np.newaxis, :]
            & (eff_stored != x)
            & (eff_stored != key_arr[np.newaxis, :])
        )
        pulldown = (mism & (kind != int(FaultKind.STUCK_MATCH))) | (
            (kind == int(FaultKind.STUCK_MISS)) & driven[np.newaxis, :]
        )
        weak = pulldown & (kind == int(FaultKind.RETENTION))
        return pulldown, weak

    def _fault_precharge_results(
        self, sigs: set[tuple]
    ) -> dict[tuple, _PrechargeClassResult]:
        """Sensing results of the retention-degraded fault classes.

        One signature ``(n_strong, weak_offsets, n_leak)`` covers every
        row sharing that pull-down composition; all missing signatures
        integrate in one stacked pass (:meth:`_fault_sig_classes`) and
        cache under keys carrying the fault-map version.
        """
        results: dict[tuple, _PrechargeClassResult] = {}
        v_pre = self.precharge.target_voltage()
        fm_version = self._faults.version
        missing: list[tuple] = []
        for sig in sigs:
            key = ("fpre", fm_version, sig, v_pre, self.t_eval)
            cached = self._ml_cache.get(key)
            if cached is not None:
                results[sig] = cached
            else:
                missing.append(sig)
        if not missing:
            return results
        for sig, result in zip(missing, self._fault_sig_classes(missing)):
            self._ml_cache.put(("fpre", fm_version, sig, v_pre, self.t_eval), result)
            results[sig] = result
        return results

    def _fault_sig_classes(self, sigs: list[tuple]) -> list[_PrechargeClassResult]:
        """Integrate retention-degraded signatures in one stacked RK4 pass.

        Same 65-point grid as the nominal classes; each signature's
        composite current sums its strong pull-downs, its weak ones in
        ``weak_offsets`` order and its leaking cells, and every stacked
        element integrates exactly as it would alone.
        """
        v_pre = self.precharge.target_voltage()
        i_pulldown = self.cell.i_pulldown
        i_leak = self.cell.i_leak

        def currents(v: np.ndarray) -> np.ndarray:
            stacked = np.empty(len(sigs))
            for k, (n_strong, offsets, n_leak) in enumerate(sigs):
                v_k = float(v[k])
                total = 0.0
                if n_strong:
                    total += n_strong * i_pulldown(v_k)
                for dvt in offsets:
                    total += i_pulldown(v_k, dvt)
                if n_leak:
                    total += n_leak * i_leak(v_k)
                stacked[k] = total
            return stacked

        with obs.span("array.integrate_faulty", n_classes=len(sigs)):
            grid = np.linspace(0.0, self.t_eval, 65)
            v_ends = discharge_waveform_batch(
                self.c_ml, currents, np.full(len(sigs), v_pre), grid
            )
        return [self._precharge_class_from_v_end(float(v_end)) for v_end in v_ends]

    def _search_impl_faulty(self, key: TernaryWord, active: np.ndarray) -> SearchOutcome:
        """One search with the attached (non-empty) fault map injected.

        Healthy-composition rows reuse the nominal per-class machinery
        (a row with ``n`` intact pull-downs is electrically a nominal
        ``n``-mismatch row); retention-degraded rows integrate their own
        composite-current classes; per-row SA offsets shift the strobe;
        dead rows drop out of sensing entirely (no precharge, no energy,
        no match).  The logical oracle for ``functional_errors`` is the
        *intended* content -- so every divergence a fault causes is
        counted, including writes a ``STUCK_TRIT`` cell swallowed.
        """
        fm = self._faults
        key_arr = key.as_array()
        x = int(Trit.X)
        driven = key_arr != x
        driven_cols = int(np.count_nonzero(driven))
        eff_stored = fm.effective_stored(self._stored)
        pulldown, weak = self._fault_row_composition(key_arr, driven, eff_stored)
        n_pull = pulldown.sum(axis=1)
        n_weak = weak.sum(axis=1)
        sensed = active & ~fm.dead_rows

        ledger = EnergyLedger()
        self._book_searchline_energy(ledger, key)

        rows = self.geometry.rows
        physical = np.zeros(rows, dtype=bool)

        # Fault-class signature of every retention-degraded sensed row.
        weak_sigs: dict[int, tuple] = {}
        for r in np.flatnonzero(sensed & (n_weak > 0)):
            r = int(r)
            offsets = tuple(sorted(float(v) for v in fm.value[r][weak[r]]))
            weak_sigs[r] = (
                int(n_pull[r] - n_weak[r]),
                offsets,
                int(driven_cols - n_pull[r]),
            )

        any_sensed = bool(np.any(sensed))
        if self.sensing == "precharge":
            nominal = np.unique(n_pull[sensed & (n_weak == 0)])
            class_results = {
                int(n): self._cached_class(int(n), driven_cols) for n in nominal
            }
            sig_results = self._fault_precharge_results(set(weak_sigs.values()))
            t_sa_max = 0.0
            t_restore_max = 0.0
            if any_sensed:
                for r in np.flatnonzero(sensed):
                    r = int(r)
                    res = (
                        sig_results[weak_sigs[r]]
                        if r in weak_sigs
                        else class_results[int(n_pull[r])]
                    )
                    offset = float(fm.sa_offset[r])
                    if offset == 0.0:
                        physical[r] = res.is_match
                        t_sa = res.t_sense
                        e_sense = res.e_sense
                    else:
                        decision = self.estimator.sense(res.v_end, offset)
                        physical[r] = decision.is_match
                        t_sa = decision.delay
                        e_sense = decision.energy
                    ledger.add(EnergyComponent.ML_PRECHARGE, res.e_restore)
                    ledger.add(EnergyComponent.ML_DISSIPATION, res.e_diss)
                    ledger.add(EnergyComponent.SENSE_AMP, e_sense)
                    t_sa_max = max(t_sa_max, t_sa)
                    t_restore_max = max(t_restore_max, res.t_restore)
                t_sense = self.t_eval + t_sa_max
                t_cycle = t_sense + t_restore_max
            else:
                t_sense = self.t_eval
                t_cycle = self.t_eval
        else:
            if any_sensed:
                v_trip = self.race_amp.v_trip
                i_pd0 = self.cell.i_pulldown(v_trip)
                i_lk0 = self.cell.i_leak(v_trip)
                for r in np.flatnonzero(sensed):
                    r = int(r)
                    n_strong = int(n_pull[r] - n_weak[r])
                    i_total = n_strong * i_pd0 + (driven_cols - int(n_pull[r])) * i_lk0
                    if n_weak[r]:
                        for dvt in fm.value[r][weak[r]]:
                            i_total += self.cell.i_pulldown(v_trip, float(dvt))
                    offset = float(fm.sa_offset[r])
                    decision = self.estimator.race(i_total, offset)
                    physical[r] = decision.is_match
                    ledger.add(EnergyComponent.RACE_SOURCE, decision.energy)
                cutoff = self.race_amp.cutoff_time(self.c_ml)
                t_sense = cutoff
                t_cycle = 1.2 * cutoff
            else:
                t_sense = self.race_amp.t_window
                t_cycle = self.race_amp.t_window

        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())
        effective = physical & self._valid
        first = self.encoder.encode(effective)

        search_delay = self.sl_settle_delay + t_sense + self.encoder.delay
        cycle_time = self.sl_settle_delay + t_cycle

        leak = self.estimator.leakage_power(self.vdd) * cycle_time
        ledger.add(EnergyComponent.LEAKAGE, leak)

        # Histogram over the hardware's effective content; the error
        # oracle over the intended content and the caller's full mask
        # (a matching word on a dead row is a functional error).
        miss_eff = mismatch_counts(eff_stored, key_arr)
        unique, inverse = np.unique(miss_eff, return_inverse=True)
        counts_valid = np.bincount(inverse[self._valid], minlength=unique.size)
        histogram = {int(n): int(c) for n, c in zip(unique, counts_valid) if c}
        logical_match = (
            (mismatch_counts(self._stored, key_arr) == 0) & self._valid & active
        )
        errors = int(np.count_nonzero(effective != logical_match))
        m = obs.metrics()
        if m is not None:
            m.counter("faults.searches").inc()
            m.counter("faults.functional_errors").inc(errors)
        return SearchOutcome(
            match_mask=effective,
            first_match=first,
            energy=ledger,
            search_delay=search_delay,
            cycle_time=cycle_time,
            miss_histogram=histogram,
            functional_errors=errors,
        )

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------

    def search(self, key: TernaryWord, row_mask: np.ndarray | None = None) -> SearchOutcome:
        """Execute one search and account its energy and timing.

        When an observability session is active, the search is traced as
        an ``array.search`` span whose per-phase children carry exact
        slices of the returned ledger (see :data:`_SPAN_ENERGY_GROUPS`).

        Args:
            key: Search key (may contain X columns, which are masked).
            row_mask: Optional per-row evaluation mask.  Rows outside the
                mask are not precharged, not sensed and cannot match --
                the selective-precharge mechanism used by
                :class:`~repro.tcam.bank.SegmentedBank`.
        """
        with obs.span(
            "array.search",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            sensing=self.sensing,
        ) as sp:
            outcome = self._search_impl(key, row_mask)
            if sp is not None:
                self._book_search_span(sp, outcome, n_searches=1)
            return outcome

    def _search_impl(
        self, key: TernaryWord, row_mask: np.ndarray | None = None
    ) -> SearchOutcome:
        if len(key) != self.geometry.cols:
            raise TCAMError(
                f"key width {len(key)} does not match array cols {self.geometry.cols}"
            )
        if row_mask is None:
            active = np.ones(self.geometry.rows, dtype=bool)
        else:
            active = np.asarray(row_mask, dtype=bool)
            if active.shape != (self.geometry.rows,):
                raise TCAMError(
                    f"row_mask must have shape ({self.geometry.rows},), got {active.shape}"
                )
        if self._fault_injection_active():
            return self._search_impl_faulty(key, active)
        key_arr = key.as_array()
        driven_cols = int(np.count_nonzero(key_arr != int(Trit.X)))
        miss = mismatch_counts(self._stored, key_arr)

        # One np.unique covers both the sensing class grouping (over the
        # active rows) and the miss histogram (over the valid rows).
        unique, inverse = np.unique(miss, return_inverse=True)
        counts_active = np.bincount(inverse[active], minlength=unique.size)
        counts_valid = np.bincount(inverse[self._valid], minlength=unique.size)

        ledger = EnergyLedger()
        self._book_searchline_energy(ledger, key)

        if self.sensing == "precharge":
            class_results = {
                int(n): self._precharge_class(int(n), driven_cols)
                for n, c in zip(unique, counts_active)
                if c
            }
        else:
            class_results = {
                int(n): self._race_class(int(n), driven_cols)
                for n, c in zip(unique, counts_active)
                if c
            }
        outcome = self._assemble_outcome(
            ledger, miss, active, unique, counts_active, counts_valid, class_results
        )
        return outcome

    def search_batch(
        self,
        keys: Iterable[TernaryWord],
        row_mask: np.ndarray | None = None,
        workers: int = 0,
    ) -> list[SearchOutcome]:
        """Execute many searches with shared per-class trajectory work.

        Produces exactly the :class:`SearchOutcome` sequence that calling
        :meth:`search` once per key would (including the sequential
        search-line toggle semantics: the first key toggles against the
        array's current drive state and each subsequent key against its
        predecessor), but the match-line trajectory, sense-amp strobe and
        restore time of each distinct ``(n_miss, driven_cols)`` mismatch
        class are computed once for the whole batch -- via the array's
        bounded LRU trajectory cache, so consecutive batches over an
        unwritten array reuse them outright.

        With ``workers > 1`` the class integrations and the per-key
        outcome assembly fan out across processes; outcomes, the
        trajectory cache's state and its hit counters stay bit-identical
        to the serial path because the parent performs every cache access
        itself, in serial order, and ships only pure computations to the
        workers.  Kernel-enabled arrays run in-process whatever
        ``workers`` says, faulted or not.

        The whole batch (key widths, ``row_mask`` shape) is validated
        before any key is searched, so a rejected batch leaves the
        search-line drive state and the metrics untouched.

        Args:
            keys: Search keys, all of the array's width.
            row_mask: Optional per-row evaluation mask applied to every
                key in the batch (as in :meth:`search`).
            workers: Process count for the fan-out; ``<= 1`` (the
                default) keeps the fully serial path.
        """
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.search_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            sensing=self.sensing,
            n_keys=len(keys),
        ) as sp:
            m = obs.metrics()
            cache_before = self._cache_counters() if m is not None else None
            kernel_before = (
                (self._kernel.table_hits, self._kernel.rk4_fallbacks)
                if m is not None and self._kernel is not None
                else None
            )
            outcomes = self._search_batch_impl(keys, row_mask, workers=workers)
            if sp is not None:
                ledger = EnergyLedger.sum(o.energy for o in outcomes)
                sp.add_energy(ledger)
                self._book_batch_metrics(len(keys), ledger)
            if m is not None:
                self._book_cache_metrics(m, cache_before)
                if kernel_before is not None and self._kernel is not None:
                    self._book_kernel_metrics(m, kernel_before)
            return outcomes

    def _search_batch_impl(
        self,
        keys: list[TernaryWord],
        row_mask: np.ndarray | None = None,
        workers: int = 0,
    ) -> list[SearchOutcome]:
        # Validate the whole batch before any key touches array state
        # (search-line drive, caches, metrics), on every path.
        packed = pack_keys(keys)
        if packed.shape[1] != self.geometry.cols:
            raise TCAMError(
                f"key width {packed.shape[1]} does not match array cols "
                f"{self.geometry.cols}"
            )
        if row_mask is None:
            active = np.ones(self.geometry.rows, dtype=bool)
        else:
            active = np.asarray(row_mask, dtype=bool)
            if active.shape != (self.geometry.rows,):
                raise TCAMError(
                    f"row_mask must have shape ({self.geometry.rows},), got {active.shape}"
                )

        faulty = self._fault_injection_active()
        if self._kernel is not None:
            # The compiled paths are a handful of fused numpy ops; the RK4
            # fan-out that ``workers`` parallelizes does not exist there,
            # so the batch runs in-process.
            soa = self._soa_state()
            if faulty:
                return self._search_batch_faulty_kernel(keys, packed, active, soa)
            return self._search_batch_kernel(packed, active, soa)
        if faulty:
            # Without the kernel a faulty batch is the per-key reference
            # loop (sequential SL-toggle semantics, trivially identical
            # for every worker count).
            return [self._search_impl_faulty(key, active) for key in keys]

        miss_all = mismatch_counts_batch(self._stored, packed)
        driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
        toggles = self._batch_toggles(packed)
        e_toggle = self.estimator.sl_toggle_energy()

        # Per-key class grouping (one np.unique per key, reused for the
        # histogram), plus the distinct class set of the whole batch.
        per_key: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        needed: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        with obs.span("array.class_dedup", n_keys=len(keys)) as sp:
            for k in range(len(keys)):
                unique, inverse = np.unique(miss_all[k], return_inverse=True)
                counts_active = np.bincount(inverse[active], minlength=unique.size)
                counts_valid = np.bincount(inverse[self._valid], minlength=unique.size)
                per_key.append((unique, counts_active, counts_valid))
                driven = int(driven_all[k])
                for n, c in zip(unique, counts_active):
                    if c:
                        pair = (int(n), driven)
                        if pair not in seen:
                            seen.add(pair)
                            if self._ml_cache.get(self._class_cache_key(pair)) is None:
                                needed.append(pair)
            if sp is not None:
                sp.annotate(distinct_classes=len(seen), to_integrate=len(needed))

        if resolve_workers(workers) > 1:
            return self._finish_batch_parallel(
                per_key, needed, miss_all, driven_all, toggles, e_toggle, active, workers
            )

        self._fill_class_cache(needed)

        outcomes: list[SearchOutcome] = []
        for k, (unique, counts_active, counts_valid) in enumerate(per_key):
            ledger = EnergyLedger()
            ledger.add(EnergyComponent.SEARCHLINE, int(toggles[k]) * e_toggle)
            driven = int(driven_all[k])
            class_results = {
                int(n): self._cached_class(int(n), driven)
                for n, c in zip(unique, counts_active)
                if c
            }
            outcomes.append(
                self._assemble_outcome(
                    ledger,
                    miss_all[k],
                    active,
                    unique,
                    counts_active,
                    counts_valid,
                    class_results,
                )
            )
        return outcomes

    def _finish_batch_parallel(
        self,
        per_key: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        needed: list[tuple[int, int]],
        miss_all: np.ndarray,
        driven_all: np.ndarray,
        toggles: np.ndarray,
        e_toggle: float,
        active: np.ndarray,
        workers: int,
    ) -> list[SearchOutcome]:
        """Parallel tail of :meth:`_search_batch_impl`.

        The real trajectory cache stays parent-owned: missing classes are
        integrated by pure workers (chunk bounds depend only on the class
        count) and installed here in :meth:`_fill_class_cache` order, and
        the per-key class fetches below run in serial key order -- so the
        cache's LRU state and hit/miss counters match a serial run
        exactly.  Only side-effect-free work crosses the process boundary,
        and the bulk of it (mismatch matrix, dense per-class counts,
        toggle/driven vectors) crosses once via shared memory; each chunk
        pickles only the array model, its class results and key bounds.
        """
        if needed:
            bounds = chunk_bounds(len(needed), default_chunk_size(len(needed)))
            results = scatter_gather(
                _integrate_class_chunk,
                [(self, needed[lo:hi]) for lo, hi in bounds],
                workers=workers,
                span_prefix="array.integrate",
            )
            for (lo, hi), chunk in zip(bounds, results):
                for pair, result in zip(needed[lo:hi], chunk):
                    self._ml_cache.put(self._class_cache_key(pair), result)

        # Serial-key-order cache fetches (cache counter/LRU semantics),
        # then densify the per-key class counts so the per-chunk payload
        # no longer carries per-key arrays.
        n_keys = len(per_key)
        cols = self.geometry.cols
        per_key_classes: list[dict[tuple[int, int], object]] = []
        dense_active = np.zeros((n_keys, cols + 1), dtype=np.int64)
        dense_valid = np.zeros((n_keys, cols + 1), dtype=np.int64)
        for k, (unique, counts_active, counts_valid) in enumerate(per_key):
            driven = int(driven_all[k])
            per_key_classes.append(
                {
                    (int(n), driven): self._cached_class(int(n), driven)
                    for n, c in zip(unique, counts_active)
                    if c
                }
            )
            dense_active[k, unique] = counts_active
            dense_valid[k, unique] = counts_valid

        metas = []
        for lo, hi in chunk_bounds(n_keys, default_chunk_size(n_keys)):
            class_results: dict[tuple[int, int], object] = {}
            for k in range(lo, hi):
                class_results.update(per_key_classes[k])
            metas.append((self, e_toggle, class_results, lo, hi))
        chunks = scatter_gather_shared(
            _assemble_chunk_shared,
            {
                "miss": miss_all,
                "counts_active": dense_active,
                "counts_valid": dense_valid,
                "toggles": toggles,
                "driven": driven_all,
                "active": active,
            },
            metas,
            workers=workers,
            span_prefix="array.assemble",
        )
        return [outcome for chunk in chunks for outcome in chunk]

    # -- observability booking -------------------------------------------------

    def _book_search_span(self, sp, outcome: SearchOutcome, n_searches: int) -> None:
        """Annotate a finished search's span and bump the search metrics.

        The outcome ledger is *read only*: per-phase child spans receive
        fresh slice ledgers (see :meth:`~repro.obs.span.Span.split_energy`),
        so tracing can never perturb the returned accounting.
        """
        sp.set_delay(outcome.search_delay)
        sp.annotate(
            first_match=outcome.first_match,
            functional_errors=outcome.functional_errors,
        )
        sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
        self._book_batch_metrics(n_searches, outcome.energy)

    def _book_batch_metrics(self, n_searches: int, ledger: EnergyLedger) -> None:
        """Count searches and attribute joules per component."""
        m = obs.metrics()
        if m is None:
            return
        m.counter("tcam.searches").inc(n_searches)
        if n_searches > 1:
            m.histogram("tcam.batch_size").observe(n_searches)
        for component, joules in ledger:
            m.counter("energy." + component).inc(joules)

    def _cache_counters(self) -> tuple[int, int, int]:
        """Trajectory-cache (hits, misses, evictions) snapshot."""
        cache = self._ml_cache
        return (cache.hits, cache.misses, cache.evictions)

    def _book_cache_metrics(self, m, before: tuple[int, int, int]) -> None:
        """Delta-sync cache counters accrued since the ``before`` snapshot.

        Per-lookup counting would sit on the batch engine's hottest loop,
        so the cache itself only keeps plain integer attributes and the
        registry is reconciled once per batch here.
        """
        after = self._cache_counters()
        for name, prev, now in zip(
            ("mlcache.hits", "mlcache.misses", "mlcache.evictions"), before, after
        ):
            m.counter(name).inc(now - prev)

    # -- trajectory cache ------------------------------------------------------

    @property
    def ml_cache(self) -> TrajectoryCache:
        """The match-line trajectory cache (inspection/diagnostics)."""
        return self._ml_cache

    def ml_cache_stats(self) -> dict[str, float]:
        """Hit/miss/invalidation counters of the trajectory cache."""
        return self._ml_cache.stats()

    def _class_cache_key(self, pair: tuple[int, int]) -> tuple:
        """Cache key of one mismatch class under the current configuration.

        The electrical knobs (precharge target / race trip point and the
        evaluation window) are part of the key, so a configuration change
        can never alias into a stale entry even before the write-path
        flush runs.
        """
        n_miss, driven = pair
        if self.sensing == "precharge":
            return ("pre", n_miss, driven, self.precharge.target_voltage(), self.t_eval)
        return ("race", n_miss, driven, self.race_amp.v_trip, self.t_eval)

    def _fill_class_cache(self, pairs: list[tuple[int, int]]) -> None:
        """Compute and cache the given classes, one stacked pass when possible."""
        if not pairs:
            return
        with obs.span("array.integrate", n_classes=len(pairs), sensing=self.sensing):
            if self.sensing == "precharge":
                v_ends = self._ml_voltages_after_eval(pairs)
                for pair, v_end in zip(pairs, v_ends):
                    self._ml_cache.put(
                        self._class_cache_key(pair), self._precharge_class_from_v_end(v_end)
                    )
            else:
                for pair in pairs:
                    self._ml_cache.put(
                        self._class_cache_key(pair), self._race_class(pair[0], pair[1])
                    )

    def _cached_class(
        self, n_miss: int, driven_cols: int
    ) -> _PrechargeClassResult | _RaceClassResult:
        """Cache lookup with a compute-on-miss fallback (LRU may evict
        a just-filled class when a batch carries more distinct classes
        than the cache bound)."""
        key = self._class_cache_key((n_miss, driven_cols))
        result = self._ml_cache.get(key)
        if result is None:
            if self.sensing == "precharge":
                result = self._precharge_class(n_miss, driven_cols)
            else:
                result = self._race_class(n_miss, driven_cols)
            self._ml_cache.put(key, result)
        return result

    # -- compiled kernel -------------------------------------------------------

    def enable_kernel(self, *, max_driven: int | None = None):
        """Compile and attach the kernel search path (see :mod:`repro.kernels`).

        Once enabled, :meth:`search_batch` answers mismatch classes from
        tabulated discharge endpoints (validated against the RK4
        reference) and assembles outcomes through fused numpy gathers,
        and the distance APIs (:meth:`nearest_match_batch`,
        :meth:`threshold_match_batch`, :meth:`topk_match_batch`) run on
        the fused distance kernel; results stay bit-identical to the
        legacy paths.  With a non-empty fault map attached,
        :meth:`search_batch` runs the fault-aware kernel
        (:meth:`_search_batch_faulty_kernel`), bit-identical to the
        per-key faulty reference.  Keys driving more than ``max_driven``
        columns fall back to the RK4 reference per key.  The scalar
        :meth:`search` always keeps the reference path.

        Args:
            max_driven: Largest tabulated ``driven_cols`` (defaults to
                the array width, i.e. no fallback ever triggers).

        Returns:
            The attached :class:`~repro.kernels.KernelEngine`.
        """
        from ..kernels import KernelEngine

        self._kernel = KernelEngine(self, max_driven=max_driven)
        self._soa = None
        return self._kernel

    def disable_kernel(self) -> None:
        """Detach the kernel; ``search_batch`` reverts to the legacy path."""
        self._kernel = None
        self._soa = None

    @property
    def kernel(self):
        """The attached :class:`~repro.kernels.KernelEngine`, or ``None``."""
        return self._kernel

    def _soa_state(self):
        """Current-content SoA snapshot, rebuilt when the version moves.

        Carries the fault planes of a non-empty attached map; callers run
        :meth:`_fault_injection_active` first, which moves the content
        version whenever the map changed.
        """
        from ..kernels import SoAState

        soa = self._soa
        if soa is None or soa.version != self._content_version:
            faults = None if self._faults_empty else self._faults
            soa = SoAState.from_array(self, self._content_version, faults)
            self._soa = soa
        return soa

    def _book_kernel_metrics(self, m, before: tuple[int, int]) -> None:
        """Delta-sync kernel counters accrued since ``before`` (cf.
        :meth:`_book_cache_metrics`)."""
        eng = self._kernel
        after = (eng.table_hits, eng.rk4_fallbacks)
        for name, prev, now in zip(
            ("kernels.table_hits", "kernels.rk4_fallbacks"), before, after
        ):
            m.counter(name).inc(now - prev)

    def _assemble_key_legacy(
        self,
        miss: np.ndarray,
        driven: int,
        n_toggles: int,
        e_toggle: float,
        active: np.ndarray,
    ) -> tuple[SearchOutcome, int]:
        """Reference-path assembly of one key (kernel out-of-grid fallback).

        Byte-for-byte the serial batch loop body: class grouping by
        ``np.unique``, class results through the trajectory cache (RK4
        on miss) and :meth:`_assemble_outcome`.  Returns the outcome and
        the number of classes served, which the caller books as RK4
        fallbacks.
        """
        unique, inverse = np.unique(miss, return_inverse=True)
        counts_active = np.bincount(inverse[active], minlength=unique.size)
        counts_valid = np.bincount(inverse[self._valid], minlength=unique.size)
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, n_toggles * e_toggle)
        class_results = {
            int(n): self._cached_class(int(n), driven)
            for n, c in zip(unique, counts_active)
            if c
        }
        outcome = self._assemble_outcome(
            ledger, miss, active, unique, counts_active, counts_valid, class_results
        )
        return outcome, len(class_results)

    def _search_batch_kernel(
        self, packed: np.ndarray, active: np.ndarray, soa
    ) -> list[SearchOutcome]:
        """Kernel tail of :meth:`_search_batch_impl`: fused numpy assembly.

        Mismatch counts come from the SoA matmul (exact integer float32
        accumulation), per-(key, class) row counts from one offset
        bincount per row subset, and per-class sensing quantities from
        the compiled tables by fancy indexing.  Per-key ledger sums use
        ``np.add.reduceat`` / ``np.maximum.reduceat``, whose strictly
        left-to-right in-segment accumulation reproduces the legacy
        per-class ``ledger.add`` loop bit for bit (classes appear in
        ascending ``n_miss`` order in both).  Keys driving more columns
        than the tabulated grid take :meth:`_assemble_key_legacy`.
        """
        eng = self._kernel
        rows, cols = self.geometry.rows, self.geometry.cols
        n_keys = packed.shape[0]
        with obs.span(
            "array.kernel_batch", n_keys=n_keys, sensing=self.sensing
        ) as sp:
            miss_all = soa.mismatch_counts(packed)
            driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
            toggles = self._batch_toggles(packed)
            e_toggle = self.estimator.sl_toggle_energy()
            outcomes: list[SearchOutcome | None] = [None] * n_keys
            any_active = bool(np.any(active))
            sl_delay = self.sl_settle_delay
            enc_energy = self.estimator.encode_energy()
            enc_delay = self.encoder.delay
            # Exactly the legacy leakage expression sans the trailing
            # ``* cycle_time`` factor (left-associative, so the prefix
            # product is a common subexpression).
            k_leak = self.estimator.leakage_power(self.vdd)

            # Dense per-(key, class) row counts over the active and valid
            # row subsets: one offset bincount each.
            n_classes = cols + 1
            offsets = miss_all + (np.arange(n_keys) * n_classes)[:, np.newaxis]
            counts_active = np.bincount(
                offsets[:, active].ravel(), minlength=n_keys * n_classes
            ).reshape(n_keys, n_classes)
            counts_valid = np.bincount(
                offsets[:, self._valid].ravel(), minlength=n_keys * n_classes
            ).reshape(n_keys, n_classes)

            if not any_active:
                # No row is sensed: only SL, encoder and leakage book.
                if self.sensing == "precharge":
                    t_sense = t_cycle = self.t_eval
                else:
                    t_sense = t_cycle = self.race_amp.t_window
                search_delay = sl_delay + t_sense + enc_delay
                cycle_time = sl_delay + t_cycle
                leak = k_leak * cycle_time
                for k in range(n_keys):
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, int(toggles[k]) * e_toggle)
                    ledger.add(EnergyComponent.PRIORITY_ENCODER, enc_energy)
                    ledger.add(EnergyComponent.LEAKAGE, leak)
                    nz = np.flatnonzero(counts_valid[k])
                    outcomes[k] = SearchOutcome(
                        match_mask=np.zeros(rows, dtype=bool),
                        first_match=None,
                        energy=ledger,
                        search_delay=search_delay,
                        cycle_time=cycle_time,
                        miss_histogram={
                            int(n): int(counts_valid[k, n]) for n in nz
                        },
                        functional_errors=0,
                    )
                return outcomes

            # Out-of-grid keys: reference path, booked as RK4 fallbacks.
            in_grid = driven_all <= eng.max_driven
            fallback_idx = np.flatnonzero(~in_grid)
            for k in fallback_idx:
                k = int(k)
                outcome, n_served = self._assemble_key_legacy(
                    miss_all[k], int(driven_all[k]), int(toggles[k]), e_toggle, active
                )
                eng.rk4_fallbacks += n_served
                outcomes[k] = outcome

            from ..kernels import sequential_segment_sum

            idx = np.flatnonzero(in_grid)
            av = active & self._valid
            for d in np.unique(driven_all[idx]):
                grp = idx[driven_all[idx] == d]
                row = eng.row(int(d))
                ca = counts_active[grp]
                kk, nn = np.nonzero(ca)  # row-major: per key, ascending class
                eng.table_hits += int(kk.size)
                cnt = ca[kk, nn].astype(np.float64)
                bounds = np.searchsorted(kk, np.arange(grp.size + 1))
                seg, seg_ends = bounds[:-1], bounds[1:]
                if self.sensing == "precharge":
                    e_pre = sequential_segment_sum(cnt * row.e_restore[nn], seg, seg_ends)
                    e_diss = sequential_segment_sum(cnt * row.e_diss[nn], seg, seg_ends)
                    e_sa = sequential_segment_sum(cnt * row.e_sense[nn], seg, seg_ends)
                    # Max reductions are order-independent selections, so
                    # reduceat is exact here.
                    t_sa = np.maximum.reduceat(row.t_sense[nn], seg)
                    t_res = np.maximum.reduceat(row.t_restore[nn], seg)
                    t_sense = self.t_eval + t_sa
                    t_cycle = t_sense + t_res
                    search_delay = sl_delay + t_sense + enc_delay
                    cycle_time = sl_delay + t_cycle
                    leak = k_leak * cycle_time
                else:
                    e_race = sequential_segment_sum(cnt * row.energy[nn], seg, seg_ends)
                    cutoff = self.race_amp.cutoff_time(self.c_ml)
                    t_cycle_s = 1.2 * cutoff
                    search_delay_s = sl_delay + cutoff + enc_delay
                    cycle_time_s = sl_delay + t_cycle_s
                    leak_s = k_leak * cycle_time_s

                miss_grp = miss_all[grp]
                eff = row.is_match[miss_grp] & av[np.newaxis, :]
                logical = (miss_grp == 0) & av[np.newaxis, :]
                errors = np.count_nonzero(eff != logical, axis=1)
                has_match = eff.any(axis=1)
                firsts = np.argmax(eff, axis=1)

                cv = counts_valid[grp]
                kv, nv = np.nonzero(cv)
                cvals = cv[kv, nv]
                hist_bounds = np.searchsorted(kv, np.arange(grp.size + 1))

                for i, k in enumerate(grp):
                    k = int(k)
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, int(toggles[k]) * e_toggle)
                    if self.sensing == "precharge":
                        ledger.add(EnergyComponent.ML_PRECHARGE, float(e_pre[i]))
                        ledger.add(EnergyComponent.ML_DISSIPATION, float(e_diss[i]))
                        ledger.add(EnergyComponent.SENSE_AMP, float(e_sa[i]))
                        sd = float(search_delay[i])
                        ct = float(cycle_time[i])
                        lk = float(leak[i])
                    else:
                        ledger.add(EnergyComponent.RACE_SOURCE, float(e_race[i]))
                        sd, ct, lk = search_delay_s, cycle_time_s, leak_s
                    ledger.add(EnergyComponent.PRIORITY_ENCODER, enc_energy)
                    ledger.add(EnergyComponent.LEAKAGE, lk)
                    lo, hi = int(hist_bounds[i]), int(hist_bounds[i + 1])
                    outcomes[k] = SearchOutcome(
                        match_mask=eff[i].copy(),
                        first_match=int(firsts[i]) if has_match[i] else None,
                        energy=ledger,
                        search_delay=sd,
                        cycle_time=ct,
                        miss_histogram={
                            int(n): int(c) for n, c in zip(nv[lo:hi], cvals[lo:hi])
                        },
                        functional_errors=int(errors[i]),
                    )
            if sp is not None:
                sp.annotate(
                    fallback_keys=int(fallback_idx.size),
                    rows_built=eng.rows_built,
                )
            return outcomes

    def _search_batch_faulty_kernel(
        self, keys: list[TernaryWord], packed: np.ndarray, active: np.ndarray, soa
    ) -> list[SearchOutcome]:
        """Fault-aware kernel tail of :meth:`_search_batch_impl`.

        Bit-identical, ledger booking order included, to calling
        :meth:`_search_impl_faulty` (the reference) once per key:

        * per-row pull-down, effective and intended mismatch counts come
          from one matmul over the snapshot's :class:`FaultPlanes`;
        * sensed rows without a weak pull-down are electrically nominal
          ``(n_pull, driven)`` classes and gather their results from the
          compiled class rows;
        * retention-degraded rows group into ``(n_strong, weak_offsets,
          n_leak)`` signatures, precharge results of the batch's unseen
          ones integrate in one stacked pass cached on the engine
          (:meth:`KernelEngine.fault_classes`), current-race ones take
          the reference current sum;
        * SA-offset rows re-sense their endpoint (or race their current)
          through the estimator with the offset; dead rows are not
          sensed;
        * per-component energies accumulate strictly left to right along
          the sensed rows (``np.cumsum``), as the reference's per-row
          ``ledger.add`` loop does.

        Keys driving more columns than the compiled grid run the
        reference per key, booked as RK4 fallbacks.
        """
        from ..kernels.soa import key_planes

        eng = self._kernel
        fp = soa.faults
        rows, cols = self.geometry.rows, self.geometry.cols
        precharge = self.sensing == "precharge"
        n_keys = packed.shape[0]
        with obs.span(
            "array.fault_kernel_batch", n_keys=n_keys, sensing=self.sensing
        ) as sp:
            n_pull_all, miss_eff_all, miss_all = fp.counts(key_planes(packed))
            driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
            prev_drive = self._last_drive
            toggles = self._batch_toggles(packed)
            e_toggle = self.estimator.sl_toggle_energy()
            sensed_idx = np.flatnonzero(active & ~fp.dead)
            ns = sensed_idx.size
            idx = np.flatnonzero(driven_all <= eng.max_driven)
            n_in = idx.size
            driven = driven_all[idx]
            n_pull = n_pull_all[idx][:, sensed_idx]  # (key, sensed row)

            # Retention-degraded (key, sensed row) groups: contiguous runs
            # of weak cells sharing a key and a row, in column order.
            key_pos = np.full(n_keys, -1)
            key_pos[idx] = np.arange(n_in)
            row_pos = np.full(rows, -1)
            row_pos[sensed_idx] = np.arange(ns)
            wk, wi = fp.weak_cells(packed)
            gk, gr = key_pos[wk], row_pos[fp.ret_row[wi]]
            keep = (gk >= 0) & (gr >= 0)
            gk, gr, wi = gk[keep], gr[keep], wi[keep]
            starts = np.flatnonzero(
                np.r_[True, (gk[1:] != gk[:-1]) | (gr[1:] != gr[:-1])]
            ) if gk.size else np.zeros(0, dtype=np.intp)
            gk, gr = gk[starts], gr[starts]
            ends = np.r_[starts[1:], wi.size].astype(np.intp)
            weak = np.zeros((n_in, ns), dtype=bool)
            weak[gk, gr] = True
            values = fp.ret_value[wi].tolist()
            sigs = []
            for lo, hi, n_p, d in zip(
                starts.tolist(), ends.tolist(), n_pull[gk, gr].tolist(), driven[gk].tolist()
            ):
                offsets = values[lo:hi]
                # The precharge reference integrates sorted shifts; the
                # race reference sums them in column order.
                sigs.append(
                    (n_p - (hi - lo), tuple(sorted(offsets) if precharge else offsets), d - n_p)
                )
            distinct = list(dict.fromkeys(sigs))
            sig_id = {sig: i for i, sig in enumerate(distinct)}
            gid = np.array([sig_id[sig] for sig in sigs], dtype=np.intp)

            # Nominal gathers (weak entries are overwritten below).
            is_match = np.zeros((n_in, ns), dtype=bool)
            if precharge:
                v_end, e_pre, e_diss, e_sa, t_sa, t_res = (np.zeros((n_in, ns)) for _ in range(6))
            else:
                e_race = np.zeros((n_in, ns))
            if ns:
                for d in np.unique(driven):
                    g = np.flatnonzero(driven == d)
                    row = eng.row(int(d))
                    c = n_pull[g]
                    is_match[g] = row.is_match[c]
                    if precharge:
                        v_end[g] = row.v_end[c]
                        e_pre[g] = row.e_restore[c]
                        e_diss[g] = row.e_diss[c]
                        e_sa[g] = row.e_sense[c]
                        t_sa[g] = row.t_sense[c]
                        t_res[g] = row.t_restore[c]
                    else:
                        e_race[g] = row.energy[c]
            classes = n_pull + (np.arange(n_in) * (cols + 1))[:, np.newaxis]
            eng.table_hits += int(
                np.count_nonzero(np.bincount(classes[~weak], minlength=n_in * (cols + 1)))
            ) + len(set(zip(gk.tolist(), gid.tolist())))

            offset_cols = np.flatnonzero(fp.sa_offset[sensed_idx] != 0.0)
            if precharge:
                if distinct:
                    found = eng.fault_classes(distinct, fp.version)
                    res = [found[sig] for sig in distinct]
                    for name, plane in (
                        ("is_match", is_match), ("v_end", v_end), ("e_restore", e_pre),
                        ("e_diss", e_diss), ("e_sense", e_sa), ("t_sense", t_sa),
                        ("t_restore", t_res),
                    ):
                        plane[gk, gr] = np.array([getattr(r, name) for r in res])[gid]
                # SA-offset rows re-strobe their endpoint with the offset.
                for j in offset_cols.tolist():
                    offset = float(fp.sa_offset[sensed_idx[j]])
                    for i, v in enumerate(v_end[:, j].tolist()):
                        dec = self.estimator.sense(v, offset)
                        is_match[i, j] = dec.is_match
                        t_sa[i, j] = dec.delay
                        e_sa[i, j] = dec.energy
            elif ns:
                # Weak and SA-offset entries race their reference current.
                v_trip = self.race_amp.v_trip
                i_pd0 = self.cell.i_pulldown(v_trip)
                i_lk0 = self.cell.i_leak(v_trip)
                special = dict(zip(zip(gk.tolist(), gr.tolist()), sigs))
                for j in offset_cols.tolist():
                    for i in range(n_in):
                        if (i, j) not in special:
                            n_p = int(n_pull[i, j])
                            special[(i, j)] = (n_p, (), int(driven[i]) - n_p)
                for (i, j), (n_strong, offsets, n_leak) in special.items():
                    i_total = n_strong * i_pd0 + n_leak * i_lk0
                    for dvt in offsets:
                        i_total += self.cell.i_pulldown(v_trip, dvt)
                    dec = self.estimator.race(i_total, float(fp.sa_offset[sensed_idx[j]]))
                    is_match[i, j] = dec.is_match
                    e_race[i, j] = dec.energy

            # Per-key reductions, in the reference's booking order.
            sl_delay = self.sl_settle_delay
            enc_delay = self.encoder.delay
            if precharge:
                if ns:
                    t_sense = self.t_eval + np.maximum(t_sa.max(axis=1), 0.0)
                    t_cycle = t_sense + np.maximum(t_res.max(axis=1), 0.0)
                    booked = [
                        (EnergyComponent.ML_PRECHARGE, np.cumsum(e_pre, axis=1)[:, -1]),
                        (EnergyComponent.ML_DISSIPATION, np.cumsum(e_diss, axis=1)[:, -1]),
                        (EnergyComponent.SENSE_AMP, np.cumsum(e_sa, axis=1)[:, -1]),
                    ]
                else:
                    t_sense = t_cycle = np.full(n_in, self.t_eval)
                    booked = []
            elif ns:
                cutoff = self.race_amp.cutoff_time(self.c_ml)
                t_sense = np.full(n_in, cutoff)
                t_cycle = np.full(n_in, 1.2 * cutoff)
                booked = [(EnergyComponent.RACE_SOURCE, np.cumsum(e_race, axis=1)[:, -1])]
            else:
                t_sense = t_cycle = np.full(n_in, self.race_amp.t_window)
                booked = []
            search_delay = (sl_delay + t_sense + enc_delay).tolist()
            cycle_time = sl_delay + t_cycle
            leak = (self.estimator.leakage_power(self.vdd) * cycle_time).tolist()
            cycle_time = cycle_time.tolist()
            booked = [(comp, e.tolist()) for comp, e in booked]
            enc_energy = self.estimator.encode_energy()

            valid = self._valid
            effective = np.zeros((n_in, rows), dtype=bool)
            effective[:, sensed_idx] = is_match
            effective &= valid
            logical = (miss_all[idx] == 0) & (valid & active)
            errors = np.count_nonzero(effective != logical, axis=1)
            has_match = effective.any(axis=1)
            firsts = np.argmax(effective, axis=1)
            hist_offsets = miss_eff_all[idx][:, valid] + (
                np.arange(n_in) * (cols + 1)
            )[:, np.newaxis]
            hist = np.bincount(
                hist_offsets.ravel(), minlength=n_in * (cols + 1)
            ).reshape(n_in, cols + 1)
            hk, hn = np.nonzero(hist)
            hc = hist[hk, hn]
            hist_bounds = np.searchsorted(hk, np.arange(n_in + 1))

            outcomes: list[SearchOutcome | None] = [None] * n_keys
            for i, k in enumerate(idx.tolist()):
                ledger = EnergyLedger()
                ledger.add(EnergyComponent.SEARCHLINE, int(toggles[k]) * e_toggle)
                for comp, e in booked:
                    ledger.add(comp, e[i])
                ledger.add(EnergyComponent.PRIORITY_ENCODER, enc_energy)
                ledger.add(EnergyComponent.LEAKAGE, leak[i])
                lo, hi = int(hist_bounds[i]), int(hist_bounds[i + 1])
                outcomes[k] = SearchOutcome(
                    match_mask=effective[i].copy(),
                    first_match=int(firsts[i]) if has_match[i] else None,
                    energy=ledger,
                    search_delay=search_delay[i],
                    cycle_time=cycle_time[i],
                    miss_histogram={
                        int(n): int(c) for n, c in zip(hn[lo:hi], hc[lo:hi])
                    },
                    functional_errors=int(errors[i]),
                )
            m = obs.metrics()
            if m is not None and n_in:
                m.counter("faults.searches").inc(n_in)
                m.counter("faults.functional_errors").inc(int(errors.sum()))

            # Out-of-grid keys: the reference, replayed against the drive
            # state each key saw in sequence, booked as RK4 fallbacks.
            fallback_idx = np.flatnonzero(driven_all > eng.max_driven)
            if fallback_idx.size:
                final_drive = self._last_drive
                drives = drive_matrix(packed)
                for k in fallback_idx.tolist():
                    self._last_drive = (
                        prev_drive if k == 0 else tuple(int(c) for c in drives[k - 1])
                    )
                    outcomes[k] = self._search_impl_faulty(keys[k], active)
                    eng.rk4_fallbacks += np.unique(n_pull_all[k, sensed_idx]).size
                self._last_drive = final_drive
            if sp is not None:
                sp.annotate(
                    fallback_keys=int(fallback_idx.size),
                    fault_signatures=len(distinct),
                    rows_built=eng.rows_built,
                )
            return outcomes

    # -- search-line booking -------------------------------------------------

    def _book_searchline_energy(self, ledger: EnergyLedger, key: TernaryWord) -> None:
        drive = drive_vector(key)
        if self._last_drive is None:
            previous = tuple(0 for _ in drive)
        else:
            previous = self._last_drive
        toggles = count_toggles(previous, drive)
        ledger.add(EnergyComponent.SEARCHLINE, toggles * self.estimator.sl_toggle_energy())
        self._last_drive = drive

    def _batch_toggles(self, packed: np.ndarray) -> np.ndarray:
        """Per-key search-line toggle counts for a stacked key batch.

        Threads ``_last_drive`` through the batch in order: key 0 toggles
        against the array's current drive state, key ``k`` against key
        ``k - 1``, and the final key's drive becomes the new array state --
        exactly the sequence ``search`` would produce key by key.
        """
        drives = drive_matrix(packed)
        if self._last_drive is None:
            prev0 = np.zeros(packed.shape[1], dtype=np.int8)
        else:
            prev0 = np.asarray(self._last_drive, dtype=np.int8)
        previous = np.vstack([prev0[np.newaxis, :], drives[:-1]])
        diff = (drives ^ previous) & 0b11
        toggles = ((diff & 1) + ((diff >> 1) & 1)).sum(axis=1)
        self._last_drive = tuple(int(c) for c in drives[-1])
        return toggles

    # -- per-mismatch-class sensing results ----------------------------------

    def _ml_voltages_after_eval(self, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """ML voltages at strobe time for several ``(n_miss, driven)`` classes.

        All classes are integrated in one stacked RK4 pass (elementwise
        identical to integrating each class alone), so the cost of the
        Python-level step loop is shared across the whole class set.
        """
        v_pre = self.precharge.target_voltage()
        out = [v_pre] * len(pairs)
        loads: list[tuple[int, int, int]] = []  # (output index, n_miss, n_match)
        for j, (n_miss, driven_cols) in enumerate(pairs):
            n_match = driven_cols - n_miss
            if n_miss < 0 or n_match < 0:
                raise TCAMError("inconsistent mismatch accounting")
            if n_miss + n_match == 0:
                continue  # fully masked key: nothing can discharge the line
            loads.append((j, n_miss, n_match))
        if not loads:
            return out

        i_pulldown = self.cell.i_pulldown
        i_leak = self.cell.i_leak

        def currents(v: np.ndarray) -> np.ndarray:
            stacked = np.empty(len(loads))
            for k, (_, n_miss, n_match) in enumerate(loads):
                v_k = float(v[k])
                total = 0.0
                if n_miss:
                    total += n_miss * i_pulldown(v_k)
                if n_match:
                    total += n_match * i_leak(v_k)
                stacked[k] = total
            return stacked

        grid = np.linspace(0.0, self.t_eval, 65)
        v_end = discharge_waveform_batch(
            self.c_ml, currents, np.full(len(loads), v_pre), grid
        )
        for k, (j, _, _) in enumerate(loads):
            out[j] = float(v_end[k])
        return out

    def _ml_voltage_after_eval(self, n_miss: int, driven_cols: int, v_pre: float) -> float:
        """Strobe-time ML voltage of one mismatch class (``v_pre`` must be
        the active precharge target; kept as an argument for call-site
        clarity in the characterization helpers)."""
        return self._ml_voltages_after_eval([(n_miss, driven_cols)])[0]

    def _precharge_class(self, n_miss: int, driven_cols: int) -> _PrechargeClassResult:
        """Full sensing result of one precharge-style mismatch class."""
        v_end = self._ml_voltages_after_eval([(n_miss, driven_cols)])[0]
        return self._precharge_class_from_v_end(v_end)

    def _precharge_class_from_v_end(self, v_end: float) -> _PrechargeClassResult:
        decision = self.estimator.sense(v_end)
        e_restore = self.estimator.ml_precharge_energy(v_end)
        e_diss = self.estimator.ml_dissipation_energy(v_end)
        return _PrechargeClassResult(
            v_end=v_end,
            is_match=decision.is_match,
            e_restore=e_restore,
            e_diss=e_diss,
            e_sense=decision.energy,
            t_sense=decision.delay,
            t_restore=self.precharge.restore_time(self.c_ml, v_end),
        )

    def _race_class(self, n_miss: int, driven_cols: int) -> _RaceClassResult:
        """Sensing result of one current-race mismatch class."""
        race = self.race_amp
        v_trip = race.v_trip
        n_match = driven_cols - int(n_miss)
        i_total = int(n_miss) * self.cell.i_pulldown(v_trip) + n_match * self.cell.i_leak(
            v_trip
        )
        decision = self.estimator.race(i_total)
        return _RaceClassResult(
            is_match=decision.is_match, energy=decision.energy, delay=decision.delay
        )

    # -- outcome assembly ------------------------------------------------------

    def _assemble_outcome(
        self,
        ledger: EnergyLedger,
        miss: np.ndarray,
        active: np.ndarray,
        unique: np.ndarray,
        counts_active: np.ndarray,
        counts_valid: np.ndarray,
        class_results: dict[int, _PrechargeClassResult | _RaceClassResult],
    ) -> SearchOutcome:
        """Book per-class energies and build the outcome for one search.

        Shared verbatim by the scalar and batched paths: the only
        difference between them is where ``class_results`` comes from
        (direct computation vs the trajectory cache).
        """
        rows = self.geometry.rows
        physical = np.zeros(rows, dtype=bool)
        any_active = bool(np.any(active))

        if self.sensing == "precharge":
            t_sa_max = 0.0
            t_restore_max = 0.0
            if any_active:
                for n, n_rows in zip(unique, counts_active):
                    if not n_rows:
                        continue
                    r = class_results[int(n)]
                    physical[active & (miss == n)] = r.is_match
                    ledger.add(EnergyComponent.ML_PRECHARGE, float(n_rows) * r.e_restore)
                    ledger.add(EnergyComponent.ML_DISSIPATION, float(n_rows) * r.e_diss)
                    ledger.add(EnergyComponent.SENSE_AMP, float(n_rows) * r.e_sense)
                    t_sa_max = max(t_sa_max, r.t_sense)
                    t_restore_max = max(t_restore_max, r.t_restore)
                t_sense = self.t_eval + t_sa_max
                t_cycle = t_sense + t_restore_max
            else:
                t_sense = self.t_eval
                t_cycle = self.t_eval
        else:
            if any_active:
                for n, n_rows in zip(unique, counts_active):
                    if not n_rows:
                        continue
                    r = class_results[int(n)]
                    physical[active & (miss == n)] = r.is_match
                    ledger.add(EnergyComponent.RACE_SOURCE, float(n_rows) * r.energy)
                # Matched lines were charged to the trip point and reset to
                # ground; the reset burns stored charge but draws nothing new.
                cutoff = self.race_amp.cutoff_time(self.c_ml)
                t_sense = cutoff
                t_cycle = 1.2 * cutoff  # reset phase
            else:
                t_sense = self.race_amp.t_window
                t_cycle = self.race_amp.t_window

        # Priority encoding --------------------------------------------------
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())
        effective = physical & self._valid
        first = self.encoder.encode(effective)

        search_delay = self.sl_settle_delay + t_sense + self.encoder.delay
        cycle_time = self.sl_settle_delay + t_cycle

        # Standby leakage over the cycle ----------------------------------------
        leak = self.estimator.leakage_power(self.vdd) * cycle_time
        ledger.add(EnergyComponent.LEAKAGE, leak)

        logical_match = (miss == 0) & self._valid & active
        histogram = {int(n): int(c) for n, c in zip(unique, counts_valid) if c}
        errors = int(np.count_nonzero(effective != logical_match))
        return SearchOutcome(
            match_mask=effective,
            first_match=first,
            energy=ledger,
            search_delay=search_delay,
            cycle_time=cycle_time,
            miss_histogram=histogram,
            functional_errors=errors,
        )

    # ------------------------------------------------------------------
    # Approximate search (associative-memory mode, used by the HDC and
    # retrieval workloads)
    # ------------------------------------------------------------------

    def _require_precharge(self, api: str) -> None:
        """Shared sensing-mode guard; ``api`` names the calling method."""
        if self.sensing != "precharge":
            raise TCAMError(f"{api} requires precharge-style sensing")

    def _require_no_faults(self, api: str) -> None:
        """Shared fault-injection guard; ``api`` names the calling method."""
        if self._fault_injection_active():
            raise TCAMError(
                f"{api} does not support fault injection; detach the fault map first"
            )

    def nearest_match(self, key: TernaryWord) -> NearestMatchOutcome:
        """Best-match search: the row with the fewest mismatching cells.

        Physically this is time-domain sensing: every match line is
        precharged and released, and the *last* line to cross the sense
        reference (or the one that never does) is the winner, since lines
        discharge faster the more pull-downs they carry.  The evaluation
        window therefore extends until the winner is separable from the
        runner-up, and every line with at least one mismatch fully
        discharges -- which is why associative-memory mode costs more per
        search than exact-match mode.

        Only supported for precharge-style sensing.
        """
        with obs.span(
            "array.nearest_match",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
        ) as sp:
            outcome = self._nearest_match_impl(key)
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(row=outcome.row, distance=outcome.distance)
                sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
                self._book_batch_metrics(1, outcome.energy)
            return outcome

    def _nearest_match_impl(self, key: TernaryWord) -> NearestMatchOutcome:
        self._require_precharge("nearest_match()")
        self._require_no_faults("nearest_match()")
        if len(key) != self.geometry.cols:
            raise TCAMError(
                f"key width {len(key)} does not match array cols {self.geometry.cols}"
            )
        key_arr = key.as_array()
        driven_cols = int(np.count_nonzero(key_arr != int(Trit.X)))
        miss = mismatch_counts(self._stored, key_arr)

        ledger = EnergyLedger()
        self._book_searchline_energy(ledger, key)

        valid_idx = np.flatnonzero(self._valid)
        if valid_idx.size == 0:
            return NearestMatchOutcome(None, 0, ledger, self.sl_settle_delay)
        best_pos = int(valid_idx[np.argmin(miss[valid_idx])])
        best_distance = int(miss[best_pos])

        v_pre = self.precharge.target_voltage()
        # Window: long enough for the runner-up distance class to cross.
        runner_up = best_distance + 1
        if runner_up <= driven_cols and runner_up > 0:
            load = MatchLineLoad(
                capacitance=self.c_ml,
                n_miss=runner_up,
                n_match=max(driven_cols - runner_up, 0),
                i_pulldown=self.cell.i_pulldown,
                i_leak=self.cell.i_leak,
            )
            t_window = MatchLine(load, v_pre, self.vdd).time_to(self.sense_amp.v_ref)
            if not np.isfinite(t_window):
                t_window = self.t_eval
        else:
            t_window = self.t_eval

        # Every line with miss > best fully discharges; the winner class
        # droops only.  Restore costs follow.
        n_losers = int(np.count_nonzero(miss[valid_idx] > best_distance))
        n_winners = int(valid_idx.size - n_losers)
        ledger.add(
            EnergyComponent.ML_PRECHARGE, self.estimator.ml_precharge_energy(0.0, n_losers)
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        if best_distance == 0:
            v_winner = self._ml_voltage_after_eval(0, driven_cols, v_pre)
        else:
            v_winner = 0.0  # the winner itself also discharges, just last
            ledger.add(
                EnergyComponent.ML_DISSIPATION,
                self.estimator.ml_dissipation_energy(0.0, n_winners),
            )
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(v_winner, n_winners),
        )
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())

        delay = self.sl_settle_delay + t_window + self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return NearestMatchOutcome(best_pos, best_distance, ledger, delay)

    def nearest_match_batch(self, keys: Iterable[TernaryWord]) -> list[NearestMatchOutcome]:
        """Best-match search over a batch, sharing per-class trajectory work.

        Equivalent to ``[nearest_match(k) for k in keys]`` outcome by
        outcome, with the winner-class droop voltages and runner-up
        crossing windows served from the trajectory cache (one entry per
        distinct ``(runner_up, driven_cols)`` pair across the batch).
        Under :meth:`enable_kernel` the batch instead runs on the fused
        distance kernel (one SoA matmul for the whole mismatch matrix,
        windows/droops from the compiled tables), bit-identical to this
        reference loop.
        """
        self._require_precharge("nearest_match_batch()")
        self._require_no_faults("nearest_match_batch()")
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.nearest_match_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            n_keys=len(keys),
        ) as sp:
            m = obs.metrics()
            cache_before = self._cache_counters() if m is not None else None
            kernel_before = (
                (self._kernel.table_hits, self._kernel.rk4_fallbacks)
                if m is not None and self._kernel is not None
                else None
            )
            outcomes = self._nearest_match_batch_impl(keys)
            if sp is not None:
                ledger = EnergyLedger.sum(o.energy for o in outcomes)
                sp.add_energy(ledger)
                self._book_batch_metrics(len(keys), ledger)
            if m is not None:
                self._book_cache_metrics(m, cache_before)
                if kernel_before is not None and self._kernel is not None:
                    self._book_kernel_metrics(m, kernel_before)
            return outcomes

    def _nearest_match_batch_impl(
        self, keys: list[TernaryWord]
    ) -> list[NearestMatchOutcome]:
        packed = pack_keys(keys)
        if packed.shape[1] != self.geometry.cols:
            raise TCAMError(
                f"key width {packed.shape[1]} does not match array cols "
                f"{self.geometry.cols}"
            )
        if self._kernel is not None:
            return self._nearest_match_batch_kernel(packed, self._soa_state())
        miss_all = mismatch_counts_batch(self._stored, packed)
        driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
        toggles = self._batch_toggles(packed)
        e_toggle = self.estimator.sl_toggle_energy()

        valid_idx = np.flatnonzero(self._valid)
        v_pre = self.precharge.target_voltage()
        return [
            self._nearest_key(
                miss_all[k], int(driven_all[k]), int(toggles[k]), e_toggle, v_pre, valid_idx
            )
            for k in range(len(keys))
        ]

    def _nearest_key(
        self,
        miss: np.ndarray,
        driven_cols: int,
        n_toggles: int,
        e_toggle: float,
        v_pre: float,
        valid_idx: np.ndarray,
    ) -> NearestMatchOutcome:
        """Reference per-key best-match body (legacy loop and kernel fallback)."""
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, n_toggles * e_toggle)
        if valid_idx.size == 0:
            return NearestMatchOutcome(None, 0, ledger, self.sl_settle_delay)
        best_pos = int(valid_idx[np.argmin(miss[valid_idx])])
        best_distance = int(miss[best_pos])

        runner_up = best_distance + 1
        if runner_up <= driven_cols and runner_up > 0:
            t_window = self._nearest_window_cached(runner_up, driven_cols, v_pre)
        else:
            t_window = self.t_eval

        n_losers = int(np.count_nonzero(miss[valid_idx] > best_distance))
        n_winners = int(valid_idx.size - n_losers)
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(0.0, n_losers),
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        if best_distance == 0:
            v_winner = self._cached_class(0, driven_cols).v_end
        else:
            v_winner = 0.0
            ledger.add(
                EnergyComponent.ML_DISSIPATION,
                self.estimator.ml_dissipation_energy(0.0, n_winners),
            )
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(v_winner, n_winners),
        )
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())

        delay = self.sl_settle_delay + t_window + self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return NearestMatchOutcome(best_pos, best_distance, ledger, delay)

    def _nearest_window_cached(
        self, runner_up: int, driven_cols: int, v_pre: float
    ) -> float:
        """Runner-up crossing window, memoized per ``(runner_up, driven)``."""
        key = ("nmw", runner_up, driven_cols, v_pre, self.sense_amp.v_ref)
        cached = self._ml_cache.get(key)
        if cached is not None:
            return cached
        load = MatchLineLoad(
            capacitance=self.c_ml,
            n_miss=runner_up,
            n_match=max(driven_cols - runner_up, 0),
            i_pulldown=self.cell.i_pulldown,
            i_leak=self.cell.i_leak,
        )
        t_window = MatchLine(load, v_pre, self.vdd).time_to(self.sense_amp.v_ref)
        if not np.isfinite(t_window):
            t_window = self.t_eval
        self._ml_cache.put(key, t_window)
        return t_window

    # -- tolerance (threshold) search ------------------------------------------

    def threshold_match(self, key: TernaryWord, max_distance: int) -> ThresholdMatchOutcome:
        """Tolerance search: every row within ``max_distance`` mismatches.

        TAP-CAM-style approximate matching: the sense strobe is delayed
        exactly long enough for the first *excluded* mismatch class
        (``max_distance + 1``) to cross the reference, so rows carrying up
        to ``max_distance`` conducting cells still read as matches.  The
        verdict is a time-domain crossing detection like
        :meth:`nearest_match`, so only the sense amplifier's internal
        swing books -- which is what makes a tolerance probe cheaper per
        query than an exact-match :meth:`search` scan.

        Only supported for precharge-style sensing.
        """
        self._require_precharge("threshold_match()")
        self._require_no_faults("threshold_match()")
        self._check_max_distance(max_distance)
        with obs.span(
            "array.threshold_match",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            max_distance=max_distance,
        ) as sp:
            outcome = self._threshold_match_batch_impl([key], max_distance)[0]
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(n_matches=outcome.n_matches)
                sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
                self._book_batch_metrics(1, outcome.energy)
            return outcome

    def threshold_match_batch(
        self, keys: Iterable[TernaryWord], max_distance: int
    ) -> list[ThresholdMatchOutcome]:
        """Tolerance search over a batch of keys.

        Equivalent to ``[threshold_match(k, max_distance) for k in keys]``
        outcome by outcome.  Under :meth:`enable_kernel` the batch runs on
        the fused distance kernel (one SoA matmul, windows and droop
        voltages from the compiled tables), bit-identical to the
        reference loop.
        """
        self._require_precharge("threshold_match_batch()")
        self._require_no_faults("threshold_match_batch()")
        self._check_max_distance(max_distance)
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.threshold_match_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            n_keys=len(keys),
            max_distance=max_distance,
        ) as sp:
            m = obs.metrics()
            cache_before = self._cache_counters() if m is not None else None
            kernel_before = (
                (self._kernel.table_hits, self._kernel.rk4_fallbacks)
                if m is not None and self._kernel is not None
                else None
            )
            outcomes = self._threshold_match_batch_impl(keys, max_distance)
            if sp is not None:
                ledger = EnergyLedger.sum(o.energy for o in outcomes)
                sp.add_energy(ledger)
                self._book_batch_metrics(len(keys), ledger)
            if m is not None:
                self._book_cache_metrics(m, cache_before)
                if kernel_before is not None and self._kernel is not None:
                    self._book_kernel_metrics(m, kernel_before)
            return outcomes

    def _check_max_distance(self, max_distance: int) -> None:
        if max_distance < 0:
            raise TCAMError(f"max_distance must be >= 0, got {max_distance}")

    def _threshold_match_batch_impl(
        self, keys: list[TernaryWord], max_distance: int
    ) -> list[ThresholdMatchOutcome]:
        packed = pack_keys(keys)
        if packed.shape[1] != self.geometry.cols:
            raise TCAMError(
                f"key width {packed.shape[1]} does not match array cols "
                f"{self.geometry.cols}"
            )
        if self._kernel is not None:
            return self._threshold_match_batch_kernel(packed, self._soa_state(), max_distance)
        miss_all = mismatch_counts_batch(self._stored, packed)
        driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
        toggles = self._batch_toggles(packed)
        e_toggle = self.estimator.sl_toggle_energy()
        valid_idx = np.flatnonzero(self._valid)
        v_pre = self.precharge.target_voltage()
        return [
            self._threshold_key(
                miss_all[k],
                int(driven_all[k]),
                int(toggles[k]),
                e_toggle,
                v_pre,
                valid_idx,
                max_distance,
            )
            for k in range(len(keys))
        ]

    def _threshold_key(
        self,
        miss: np.ndarray,
        driven_cols: int,
        n_toggles: int,
        e_toggle: float,
        v_pre: float,
        valid_idx: np.ndarray,
        max_distance: int,
    ) -> ThresholdMatchOutcome:
        """Reference per-key tolerance-search body (legacy loop and kernel fallback)."""
        rows = self.geometry.rows
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, n_toggles * e_toggle)
        if valid_idx.size == 0:
            return ThresholdMatchOutcome(
                match_mask=np.zeros(rows, dtype=bool),
                first_match=None,
                n_matches=0,
                max_distance=max_distance,
                energy=ledger,
                search_delay=self.sl_settle_delay,
            )
        miss_v = miss[valid_idx]
        within = miss_v <= max_distance
        mask = np.zeros(rows, dtype=bool)
        mask[valid_idx[within]] = True
        n_matches = int(np.count_nonzero(within))
        n_losers = int(valid_idx.size - n_matches)

        # Strobe window: the first excluded class must cross the reference.
        cut = max_distance + 1
        if 0 < cut <= driven_cols:
            t_window = self._nearest_window_cached(cut, driven_cols, v_pre)
        else:
            t_window = self.t_eval

        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(0.0, n_losers),
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        # Accepted rows droop to their class endpoints; each accepted
        # class books restore and dissipation, accumulated in ascending
        # n_miss order into one add per component (= the kernel's
        # segmented sums, bit for bit).
        e_pre = 0.0
        e_diss = 0.0
        classes, counts = np.unique(miss_v[within], return_counts=True)
        for n, c in zip(classes, counts):
            r = self._cached_class(int(n), driven_cols)
            e_pre += float(c) * r.e_restore
            e_diss += float(c) * r.e_diss
        ledger.add(EnergyComponent.ML_PRECHARGE, e_pre)
        ledger.add(EnergyComponent.ML_DISSIPATION, e_diss)
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())
        delay = self.sl_settle_delay + t_window + self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return ThresholdMatchOutcome(
            match_mask=mask,
            first_match=self.encoder.encode(mask),
            n_matches=n_matches,
            max_distance=max_distance,
            energy=ledger,
            search_delay=delay,
        )

    # -- k-nearest (top-k) search ----------------------------------------------

    def topk_match(self, key: TernaryWord, k: int) -> TopKMatchOutcome:
        """k-nearest search: the ``k`` rows with the fewest mismatches.

        Time-domain sensing as in :meth:`nearest_match`, with the strobe
        delayed until the class one past the k-th winner crosses the
        reference; the priority encoder then drains the k winners
        sequentially (ascending distance, ties broken by row index).

        Only supported for precharge-style sensing.
        """
        self._require_precharge("topk_match()")
        self._require_no_faults("topk_match()")
        self._check_k(k)
        with obs.span(
            "array.topk_match",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            k=k,
        ) as sp:
            outcome = self._topk_match_batch_impl([key], k)[0]
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(n_returned=len(outcome.rows))
                sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
                self._book_batch_metrics(1, outcome.energy)
            return outcome

    def topk_match_batch(self, keys: Iterable[TernaryWord], k: int) -> list[TopKMatchOutcome]:
        """k-nearest search over a batch of keys.

        Equivalent to ``[topk_match(key, k) for key in keys]`` outcome by
        outcome.  Under :meth:`enable_kernel` the batch runs on the fused
        distance kernel, bit-identical to the reference loop.
        """
        self._require_precharge("topk_match_batch()")
        self._require_no_faults("topk_match_batch()")
        self._check_k(k)
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.topk_match_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            n_keys=len(keys),
            k=k,
        ) as sp:
            m = obs.metrics()
            cache_before = self._cache_counters() if m is not None else None
            kernel_before = (
                (self._kernel.table_hits, self._kernel.rk4_fallbacks)
                if m is not None and self._kernel is not None
                else None
            )
            outcomes = self._topk_match_batch_impl(keys, k)
            if sp is not None:
                ledger = EnergyLedger.sum(o.energy for o in outcomes)
                sp.add_energy(ledger)
                self._book_batch_metrics(len(keys), ledger)
            if m is not None:
                self._book_cache_metrics(m, cache_before)
                if kernel_before is not None and self._kernel is not None:
                    self._book_kernel_metrics(m, kernel_before)
            return outcomes

    def _check_k(self, k: int) -> None:
        if k < 1:
            raise TCAMError(f"k must be >= 1, got {k}")

    def _topk_match_batch_impl(
        self, keys: list[TernaryWord], k: int
    ) -> list[TopKMatchOutcome]:
        packed = pack_keys(keys)
        if packed.shape[1] != self.geometry.cols:
            raise TCAMError(
                f"key width {packed.shape[1]} does not match array cols "
                f"{self.geometry.cols}"
            )
        if self._kernel is not None:
            return self._topk_match_batch_kernel(packed, self._soa_state(), k)
        miss_all = mismatch_counts_batch(self._stored, packed)
        driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
        toggles = self._batch_toggles(packed)
        e_toggle = self.estimator.sl_toggle_energy()
        valid_idx = np.flatnonzero(self._valid)
        v_pre = self.precharge.target_voltage()
        return [
            self._topk_key(
                miss_all[q], int(driven_all[q]), int(toggles[q]), e_toggle, v_pre, valid_idx, k
            )
            for q in range(len(keys))
        ]

    def _topk_key(
        self,
        miss: np.ndarray,
        driven_cols: int,
        n_toggles: int,
        e_toggle: float,
        v_pre: float,
        valid_idx: np.ndarray,
        k: int,
    ) -> TopKMatchOutcome:
        """Reference per-key top-k body (legacy loop and kernel fallback)."""
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, n_toggles * e_toggle)
        if valid_idx.size == 0:
            return TopKMatchOutcome((), (), k, ledger, self.sl_settle_delay)
        miss_v = miss[valid_idx]
        n_take = min(k, int(valid_idx.size))
        order = np.argsort(miss_v, kind="stable")[:n_take]
        sel_rows = valid_idx[order]
        sel_dist = miss_v[order]
        d_k = int(sel_dist[-1])

        # Strobe window: the class one past the k-th winner must cross.
        cut = d_k + 1
        if 0 < cut <= driven_cols:
            t_window = self._nearest_window_cached(cut, driven_cols, v_pre)
        else:
            t_window = self.t_eval

        # Every class deeper than the k-th winner fully discharges; the
        # surviving classes droop to their endpoints.
        survivors = miss_v <= d_k
        n_losers = int(valid_idx.size - np.count_nonzero(survivors))
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(0.0, n_losers),
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        e_pre = 0.0
        e_diss = 0.0
        classes, counts = np.unique(miss_v[survivors], return_counts=True)
        for n, c in zip(classes, counts):
            r = self._cached_class(int(n), driven_cols)
            e_pre += float(c) * r.e_restore
            e_diss += float(c) * r.e_diss
        ledger.add(EnergyComponent.ML_PRECHARGE, e_pre)
        ledger.add(EnergyComponent.ML_DISSIPATION, e_diss)
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(
            EnergyComponent.PRIORITY_ENCODER,
            float(n_take) * self.estimator.encode_energy(),
        )
        delay = self.sl_settle_delay + t_window + float(n_take) * self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return TopKMatchOutcome(
            rows=tuple(int(r) for r in sel_rows),
            distances=tuple(int(d) for d in sel_dist),
            k=k,
            energy=ledger,
            search_delay=delay,
        )

    # -- fused distance kernel tails -------------------------------------------

    def _distance_kernel_prologue(self, packed: np.ndarray, soa):
        """Shared front half of the distance-kernel tails.

        One SoA matmul for the full ``(n_keys, rows)`` mismatch matrix
        (bit-identical to the broadcast reference), plus the per-key
        driven counts, sequential search-line toggle chain and the
        constant per-batch estimator values.
        """
        miss_all = soa.mismatch_counts(packed)
        driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
        toggles = self._batch_toggles(packed)
        e_toggle = self.estimator.sl_toggle_energy()
        # int * float == float64(int) * float bit for bit (exact ints).
        sl_e = toggles.astype(np.float64) * e_toggle
        valid_idx = np.flatnonzero(self._valid)
        v_pre = self.precharge.target_voltage()
        return miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx, v_pre

    def _diss0_table(self, n_max: int) -> np.ndarray:
        """Full-discharge dissipation per line count, tabulated 0..n_max.

        Entry ``n`` is exactly ``estimator.ml_dissipation_energy(0.0, n)``
        (same call, same float), so the kernels can gather count-scaled
        dissipation terms instead of memoizing per distinct count.
        """
        est = self.estimator
        return np.array(
            [est.ml_dissipation_energy(0.0, n) for n in range(n_max + 1)]
        )

    def _nearest_match_batch_kernel(
        self, packed: np.ndarray, soa
    ) -> list[NearestMatchOutcome]:
        """Kernel tail of :meth:`_nearest_match_batch_impl`.

        Winner/runner-up partitioning is vectorized over the whole
        mismatch matrix; evaluation windows come from the engine's
        crossing-time tables (:meth:`~repro.kernels.KernelEngine.window_row`,
        the same floats :meth:`_nearest_window_cached` computes) and the
        winner droop voltages from the compiled waveform tables.  The
        per-key ledgers repeat the reference adds in the reference order,
        with the estimator's count-scaled terms memoized per distinct
        count -- identical call, identical float.  Keys driving more
        columns than the tabulated grid take the reference body per key
        and book RK4 fallbacks.
        """
        eng = self._kernel
        n_keys = packed.shape[0]
        with obs.span("array.distance_kernel", mode="nearest", n_keys=n_keys) as sp:
            (miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx, v_pre) = (
                self._distance_kernel_prologue(packed, soa)
            )
            outcomes: list[NearestMatchOutcome | None] = [None] * n_keys
            if valid_idx.size == 0:
                for q in range(n_keys):
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, float(sl_e[q]))
                    outcomes[q] = NearestMatchOutcome(
                        None, 0, ledger, self.sl_settle_delay
                    )
                return outcomes

            miss_v = miss_all[:, valid_idx]
            best_j = np.argmin(miss_v, axis=1)
            best_pos = valid_idx[best_j]
            best_d = np.take_along_axis(miss_v, best_j[:, np.newaxis], axis=1)[:, 0]
            n_losers = np.count_nonzero(miss_v > best_d[:, np.newaxis], axis=1)
            n_winners = valid_idx.size - n_losers

            r0 = self.estimator.ml_precharge_energy(0.0, 1)
            e_sa = self.estimator.sense_idle_energy(int(valid_idx.size))
            enc_e = self.estimator.encode_energy()
            enc_delay = self.encoder.delay
            sl_delay = self.sl_settle_delay
            k_leak = self.standby_power()
            diss_tab = self._diss0_table(int(valid_idx.size))

            in_grid = driven_all <= eng.max_driven
            for q in np.flatnonzero(~in_grid):
                q = int(q)
                outcomes[q] = self._nearest_key(
                    miss_all[q], int(driven_all[q]), int(toggles[q]), e_toggle,
                    v_pre, valid_idx,
                )
                eng.rk4_fallbacks += 1

            idx = np.flatnonzero(in_grid)
            if idx.size:
                # Pad the per-driven crossing-time rows and winner restore
                # energies into dense tables so the whole batch gathers in
                # one pass (entries beyond each row's triangle are masked
                # off by the ``ru <= d`` window condition below).
                d_arr = driven_all[idx]
                ds = np.unique(d_arr)
                maxd = int(ds[-1])
                win_tab = np.full((maxd + 1, maxd + 2), self.t_eval)
                rest0 = np.empty(maxd + 1)
                for d in ds:
                    d = int(d)
                    win_tab[d, : d + 1] = eng.window_row(d)
                    rest0[d] = eng.row(d).e_restore[0]
                eng.table_hits += int(idx.size)
                bd = best_d[idx]
                nl = n_losers[idx]
                nw = n_winners[idx]
                ru = bd + 1
                t_window = np.where(
                    ru <= d_arr,
                    win_tab[d_arr, np.minimum(ru, d_arr)],
                    self.t_eval,
                )
                delays = (sl_delay + t_window) + enc_delay
                leak = k_leak * delays
                pre_losers = nl.astype(np.float64) * r0
                pre_winners = nw.astype(np.float64) * np.where(
                    bd == 0, rest0[d_arr], r0
                )
                # Component totals, vectorized with the reference operand
                # grouping: two precharge adds fold to one elementwise sum
                # ((0.0 + a) + b == a + b); the winner dissipation term is
                # only added for distance > 0 (x + 0.0 == x for x >= 0.0).
                pre_tot = (pre_losers + pre_winners).tolist()
                diss_tot = (
                    diss_tab[nl] + np.where(bd != 0, diss_tab[nw], 0.0)
                ).tolist()
                assembled = [
                    NearestMatchOutcome(
                        pos,
                        dist,
                        EnergyLedger._from_booked({
                            _SL: sl,
                            _PRE: pre,
                            _DISS: dis,
                            _SA: e_sa,
                            _ENC: enc_e,
                            _LEAK: lk,
                        }),
                        dl,
                    )
                    for pos, dist, sl, pre, dis, lk, dl in zip(
                        best_pos[idx].tolist(),
                        bd.tolist(),
                        sl_e[idx].tolist(),
                        pre_tot,
                        diss_tot,
                        leak.tolist(),
                        delays.tolist(),
                    )
                ]
                for q, out in zip(idx.tolist(), assembled):
                    outcomes[q] = out
            if sp is not None:
                sp.annotate(fallback_keys=int(np.count_nonzero(~in_grid)))
            return outcomes

    def _valid_class_counts(self, miss_v: np.ndarray) -> np.ndarray:
        """Dense per-(key, class) valid-row counts from the valid-column
        mismatch matrix: one offset bincount."""
        n_keys = miss_v.shape[0]
        n_classes = self.geometry.cols + 1
        offsets = miss_v + (np.arange(n_keys) * n_classes)[:, np.newaxis]
        return np.bincount(
            offsets.ravel(), minlength=n_keys * n_classes
        ).reshape(n_keys, n_classes)

    def _threshold_match_batch_kernel(
        self, packed: np.ndarray, soa, max_distance: int
    ) -> list[ThresholdMatchOutcome]:
        """Kernel tail of :meth:`_threshold_match_batch_impl` (cf.
        :meth:`_nearest_match_batch_kernel`); accepted-class restore and
        dissipation come from the compiled tables through segmented
        left-to-right sums, reproducing the reference accumulation."""
        from ..kernels import sequential_segment_sum

        eng = self._kernel
        rows = self.geometry.rows
        n_keys = packed.shape[0]
        with obs.span("array.distance_kernel", mode="threshold", n_keys=n_keys) as sp:
            (miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx, v_pre) = (
                self._distance_kernel_prologue(packed, soa)
            )
            outcomes: list[ThresholdMatchOutcome | None] = [None] * n_keys
            if valid_idx.size == 0:
                for q in range(n_keys):
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, float(sl_e[q]))
                    outcomes[q] = ThresholdMatchOutcome(
                        match_mask=np.zeros(rows, dtype=bool),
                        first_match=None,
                        n_matches=0,
                        max_distance=max_distance,
                        energy=ledger,
                        search_delay=self.sl_settle_delay,
                    )
                return outcomes

            miss_v = miss_all[:, valid_idx]
            within = miss_v <= max_distance
            n_match = np.count_nonzero(within, axis=1)
            n_losers = valid_idx.size - n_match
            counts_valid = self._valid_class_counts(miss_v)
            cut = max_distance + 1

            r0 = self.estimator.ml_precharge_energy(0.0, 1)
            e_sa = self.estimator.sense_idle_energy(int(valid_idx.size))
            enc_e = self.estimator.encode_energy()
            enc_delay = self.encoder.delay
            sl_delay = self.sl_settle_delay
            k_leak = self.standby_power()
            diss_tab = self._diss0_table(int(valid_idx.size))

            in_grid = driven_all <= eng.max_driven
            for q in np.flatnonzero(~in_grid):
                q = int(q)
                outcomes[q] = self._threshold_key(
                    miss_all[q], int(driven_all[q]), int(toggles[q]), e_toggle,
                    v_pre, valid_idx, max_distance,
                )
                eng.rk4_fallbacks += 1

            idx = np.flatnonzero(in_grid)
            for d in np.unique(driven_all[idx]):
                d = int(d)
                grp = idx[driven_all[idx] == d]
                wrow = eng.window_row(d)
                vrow = eng.row(d)
                eng.table_hits += int(grp.size)
                t_window = float(wrow[cut]) if cut <= d else self.t_eval
                delay = (sl_delay + t_window) + enc_delay
                leak = k_leak * delay
                # Accepted classes are exactly the first ``cut`` columns of
                # the class histogram (miss <= driven bounds the rest out).
                cv = counts_valid[grp][:, : min(cut, d + 1)]
                kk, nn = np.nonzero(cv)  # row-major: per key, ascending class
                cnt = cv[kk, nn].astype(np.float64)
                bounds = np.searchsorted(kk, np.arange(grp.size + 1))
                seg, seg_ends = bounds[:-1], bounds[1:]
                e_pre = sequential_segment_sum(cnt * vrow.e_restore[nn], seg, seg_ends)
                e_diss = sequential_segment_sum(cnt * vrow.e_diss[nn], seg, seg_ends)
                nl = n_losers[grp]
                pre_losers = nl.astype(np.float64) * r0
                # Reference booking folds to one elementwise sum per
                # component: (0.0 + losers) + accepted == losers + accepted.
                pre_tot = (pre_losers + e_pre).tolist()
                diss_tot = (diss_tab[nl] + e_diss).tolist()
                sl_l = sl_e[grp].tolist()
                nm_l = n_match[grp].tolist()
                for i, q in enumerate(grp.tolist()):
                    ledger = EnergyLedger._from_booked({
                        _SL: sl_l[i],
                        _PRE: pre_tot[i],
                        _DISS: diss_tot[i],
                        _SA: e_sa,
                        _ENC: enc_e,
                        _LEAK: leak,
                    })
                    mask = np.zeros(rows, dtype=bool)
                    mask[valid_idx[within[q]]] = True
                    outcomes[q] = ThresholdMatchOutcome(
                        match_mask=mask,
                        first_match=self.encoder.encode(mask),
                        n_matches=nm_l[i],
                        max_distance=max_distance,
                        energy=ledger,
                        search_delay=delay,
                    )
            if sp is not None:
                sp.annotate(fallback_keys=int(np.count_nonzero(~in_grid)))
            return outcomes

    def _topk_match_batch_kernel(
        self, packed: np.ndarray, soa, k: int
    ) -> list[TopKMatchOutcome]:
        """Kernel tail of :meth:`_topk_match_batch_impl`.

        Selection runs on a composite ``miss * n_valid + position`` key,
        which reproduces the reference's stable-sort tie-breaking
        (ascending distance, then row index) under ``argpartition``.
        """
        from ..kernels import sequential_segment_sum

        eng = self._kernel
        n_keys = packed.shape[0]
        with obs.span("array.distance_kernel", mode="topk", n_keys=n_keys) as sp:
            (miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx, v_pre) = (
                self._distance_kernel_prologue(packed, soa)
            )
            outcomes: list[TopKMatchOutcome | None] = [None] * n_keys
            if valid_idx.size == 0:
                for q in range(n_keys):
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, float(sl_e[q]))
                    outcomes[q] = TopKMatchOutcome((), (), k, ledger, self.sl_settle_delay)
                return outcomes

            n_valid = int(valid_idx.size)
            miss_v = miss_all[:, valid_idx]
            comp = miss_v * np.int64(n_valid) + np.arange(n_valid, dtype=np.int64)
            n_take = min(k, n_valid)
            if n_take < n_valid:
                part = np.argpartition(comp, n_take - 1, axis=1)[:, :n_take]
                comp_sel = np.take_along_axis(comp, part, axis=1)
                order = np.argsort(comp_sel, axis=1)
                sel_j = np.take_along_axis(part, order, axis=1)
            else:
                sel_j = np.argsort(comp, axis=1)
            sel_rows = valid_idx[sel_j]
            sel_dist = np.take_along_axis(miss_v, sel_j, axis=1)
            d_k = sel_dist[:, -1]
            n_losers = np.count_nonzero(miss_v > d_k[:, np.newaxis], axis=1)
            counts_valid = self._valid_class_counts(miss_v)

            r0 = self.estimator.ml_precharge_energy(0.0, 1)
            e_sa = self.estimator.sense_idle_energy(n_valid)
            enc_e = self.estimator.encode_energy()
            enc_delay = self.encoder.delay
            sl_delay = self.sl_settle_delay
            k_leak = self.standby_power()
            diss_tab = self._diss0_table(n_valid)

            in_grid = driven_all <= eng.max_driven
            for q in np.flatnonzero(~in_grid):
                q = int(q)
                outcomes[q] = self._topk_key(
                    miss_all[q], int(driven_all[q]), int(toggles[q]), e_toggle,
                    v_pre, valid_idx, k,
                )
                eng.rk4_fallbacks += 1

            idx = np.flatnonzero(in_grid)
            n_classes = self.geometry.cols + 1
            class_grid = np.arange(n_classes)
            for d in np.unique(driven_all[idx]):
                d = int(d)
                grp = idx[driven_all[idx] == d]
                wrow = eng.window_row(d)
                vrow = eng.row(d)
                eng.table_hits += int(grp.size)
                dk = d_k[grp]
                ru = dk + 1
                t_window = np.where(ru <= d, wrow[np.minimum(ru, d)], self.t_eval)
                delays = (sl_delay + t_window) + float(n_take) * enc_delay
                leak = k_leak * delays
                # Surviving classes: miss <= d_k, zeroed out per key.
                cv = counts_valid[grp] * (class_grid[np.newaxis, :] <= dk[:, np.newaxis])
                cv = cv[:, : d + 1]
                kk, nn = np.nonzero(cv)
                cnt = cv[kk, nn].astype(np.float64)
                bounds = np.searchsorted(kk, np.arange(grp.size + 1))
                seg, seg_ends = bounds[:-1], bounds[1:]
                e_pre = sequential_segment_sum(cnt * vrow.e_restore[nn], seg, seg_ends)
                e_diss = sequential_segment_sum(cnt * vrow.e_diss[nn], seg, seg_ends)
                nl = n_losers[grp]
                pre_losers = nl.astype(np.float64) * r0
                enc_total = float(n_take) * enc_e
                # Component totals folded as in the nearest kernel.
                pre_tot = (pre_losers + e_pre).tolist()
                diss_tot = (diss_tab[nl] + e_diss).tolist()
                sl_l = sl_e[grp].tolist()
                leak_l = leak.tolist()
                delays_l = delays.tolist()
                rows_l = sel_rows[grp].tolist()
                dist_l = sel_dist[grp].tolist()
                for i, q in enumerate(grp.tolist()):
                    ledger = EnergyLedger._from_booked({
                        _SL: sl_l[i],
                        _PRE: pre_tot[i],
                        _DISS: diss_tot[i],
                        _SA: e_sa,
                        _ENC: enc_total,
                        _LEAK: leak_l[i],
                    })
                    outcomes[q] = TopKMatchOutcome(
                        rows=tuple(rows_l[i]),
                        distances=tuple(dist_l[i]),
                        k=k,
                        energy=ledger,
                        search_delay=delays_l[i],
                    )
            if sp is not None:
                sp.annotate(fallback_keys=int(np.count_nonzero(~in_grid)))
            return outcomes

    # ------------------------------------------------------------------
    # Static characterization helpers (used by benches and analyses)
    # ------------------------------------------------------------------

    def sense_margin(self) -> float:
        """Worst-case V(match) - V(1-mismatch) at the strobe instant [V].

        Only meaningful for precharge-style sensing.
        """
        if self.sensing != "precharge":
            raise TCAMError("sense_margin() applies to precharge-style sensing only")
        v_pre = self.precharge.target_voltage()
        cols = self.geometry.cols
        v_match = self._ml_voltage_after_eval(0, cols, v_pre)
        v_miss = self._ml_voltage_after_eval(1, cols, v_pre)
        return v_match - v_miss

    def standby_power(self) -> float:
        """Array standby power [W] at the configured supply."""
        return self.estimator.leakage_power(self.vdd)

    def occupancy(self) -> float:
        """Fraction of rows holding valid entries."""
        return float(np.count_nonzero(self._valid)) / self.geometry.rows

    def x_density(self) -> float:
        """Fraction of X trits among the valid rows (0.0 when empty)."""
        valid_rows = self._stored[self._valid]
        if valid_rows.size == 0:
            return 0.0
        return float(np.mean(valid_rows == int(Trit.X)))

    def pipelined_cycle_time(self) -> float:
        """Cycle time with SL drive, evaluation and restore overlapped [s].

        A pipelined TCAM drives the next key's search lines while the
        previous search's match lines restore, so the issue rate is set by
        the slowest *stage* rather than their sum.  Only meaningful for
        precharge-style sensing (the restore stage exists there).
        """
        if self.sensing != "precharge":
            raise TCAMError("pipelined cycle time applies to precharge sensing")
        t_restore = self.precharge.restore_time(self.c_ml, 0.0)  # worst case
        stages = (self.sl_settle_delay, self.t_eval, t_restore)
        return max(stages)

    # ------------------------------------------------------------------
    # Wear / endurance
    # ------------------------------------------------------------------

    def wear_counts(self) -> np.ndarray:
        """Per-cell state-change counts since construction (rows x cols)."""
        return self._write_counts.copy()

    def wear_report(self) -> dict[str, float]:
        """Summary of accumulated cell wear.

        Returns:
            ``max``, ``mean`` and ``total`` state changes, plus the
            hottest cell's coordinates packed as ``hot_row``/``hot_col``.
        """
        counts = self._write_counts
        hot = np.unravel_index(int(np.argmax(counts)), counts.shape)
        return {
            "max": float(counts.max()),
            "mean": float(counts.mean()),
            "total": float(counts.sum()),
            "hot_row": float(hot[0]),
            "hot_col": float(hot[1]),
        }

    def remaining_lifetime_fraction(self, endurance_cycles: float) -> float:
        """Fraction of cell endurance the hottest cell has left.

        Args:
            endurance_cycles: The technology's program/erase endurance.
        """
        if endurance_cycles <= 0.0:
            raise TCAMError(f"endurance must be positive, got {endurance_cycles}")
        worst = float(self._write_counts.max())
        return max(1.0 - worst / endurance_cycles, 0.0)
