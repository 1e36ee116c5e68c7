"""The TCAM array: search and write with full energy/delay accounting.

A :class:`TCAMArray` holds ``rows`` ternary words of ``cols`` trits in a
given cell technology and executes the two TCAM operations:

* :meth:`TCAMArray.search` -- parallel compare of a key against every row.
  Rows are grouped by their mismatch count (all rows with ``n`` conducting
  cells share identical match-line dynamics), each group's sensing result
  is gathered from the compiled per-class tables, and the per-component
  energies are booked into an
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

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import obs
from ..circuits.matchline import MatchLine, MatchLineLoad, composite_current
from ..circuits.precharge import FullSwingPrecharge, PrechargeScheme
from ..circuits.rc import discharge_waveform_batch
from ..circuits.searchline import SearchLine
from ..circuits.senseamp import CurrentRaceSenseAmp, VoltageSenseAmp
from ..circuits.wire import M2_WIRE, M4_WIRE
from ..energy.accounting import EnergyComponent, EnergyLedger
from ..energy.estimator import ArrayEstimator
from ..errors import ReproError, TCAMError
from ..faults.faultmap import FaultMap
from ..kernels.engine import class_sums
from .area import TECH_45NM, TechNode, cell_dimensions
from .cell import CellDescriptor
from .batch import SearchBatch, SearchOutcome
from .outcome import BaseOutcome, as_batch
from .priority import PriorityEncoder
from .trit import (
    TernaryWord,
    Trit,
    drive_matrix,
    trit_block,
)

SENSING_STYLES = ("precharge", "current_race")

# RK4 grid points over the evaluation window: every match-line class
# (nominal or fault signature) integrates on this grid.
RK4_GRID_POINTS = 65

# Canonical component keys, pre-resolved for the distance-kernel ledger
# assembly (EnergyLedger._from_booked takes plain strings).
_SL = EnergyComponent.SEARCHLINE.value
_PRE = EnergyComponent.ML_PRECHARGE.value
_DISS = EnergyComponent.ML_DISSIPATION.value
_SA = EnergyComponent.SENSE_AMP.value
_ENC = EnergyComponent.PRIORITY_ENCODER.value
_LEAK = EnergyComponent.LEAKAGE.value
_RACE = EnergyComponent.RACE_SOURCE.value

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


def _check_count(value, name: str, minimum: int) -> int:
    """``value`` as a Python int, or :class:`TCAMError` when it is not a
    Python/NumPy integer (bools and floats included) or below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TCAMError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise TCAMError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_row(row, rows: int, api: str) -> int:
    """``row`` as a Python int index below ``rows``, or :class:`TCAMError`
    naming ``api`` (non-integers, bools and negatives included)."""
    row = _check_count(row, f"{api} row", 0)
    if row >= rows:
        raise TCAMError(f"{api} row {row} outside [0, {rows})")
    return row


def _price_rows(
    write_table: Callable[[], tuple[np.ndarray, np.ndarray]], old: np.ndarray, new: np.ndarray
) -> tuple[EnergyLedger, float, np.ndarray]:
    """Price storing the trit block ``new`` over ``old`` (both rows x cols).

    Every cell's cost is gathered from the cached ``(old, new)`` tables
    that ``write_table()`` returns (a
    :class:`~repro.energy.estimator.WriteTables`, which raises on an
    invalid price), so nothing is stored until this returns.  Each row's
    cells are summed left to right
    (:func:`~repro.kernels.class_sums`) and the row sums accumulate left
    to right into one WRITE entry: the float a per-cell ``ledger.add``
    loop over the block books.

    Returns:
        ``(ledger, latency, changed)``: the slowest cell's latency
        (``max(0.0, ...)``) and the per-cell ``old != new`` mask.
    """
    e_tab, t_tab = write_table()
    transition = old * np.int8(3) + new  # flat (old, new) index into the 3x3 tables
    ledger = EnergyLedger()
    ledger.add(EnergyComponent.WRITE, float(np.cumsum(class_sums(e_tab.take(transition)))[-1]))
    return ledger, max(0.0, float(t_tab.take(transition).max())), old != new


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
class _PrechargeClassResult:
    """Per-mismatch-class sensing results for precharge-style search.

    One instance covers every row sharing ``(n_miss, driven_cols)``: the
    trajectory endpoint, the sense decision derived from it and the
    per-line restore costs.  These are exactly the quantities the per-key
    reference recomputes per class per search; the compiled kernel
    tabulates them once per electrical configuration.
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


class _DistanceBatch(NamedTuple):
    """What the distance-kernel tails share: the ``(keys, valid rows)``
    mismatch matrix, per-key driven counts and search-line energies, and
    the estimator terms."""

    miss_v: np.ndarray
    driven: np.ndarray
    sl_e: np.ndarray
    valid_idx: np.ndarray
    r0: float
    e_sa: float
    enc_e: float
    enc_delay: float
    sl_delay: float
    k_leak: float
    diss_tab: np.ndarray


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
        t_eval: Evaluation window [s] for precharge-style sensing;
            defaults to 2x the worst-case single-mismatch discharge time
            (a standard timing margin).  A current-race array's window is
            its race amp's cutoff, so passing one there is an error.

    Every search runs on the compiled kernel (:attr:`kernel`, see
    :mod:`repro.kernels`): the scalar operations (:meth:`search`,
    :meth:`nearest_match`, :meth:`threshold_match`, :meth:`topk_match`)
    are one-key calls of their ``*_batch`` counterparts, and all of them
    are bit-identical to a loop over the per-key reference functions of
    :mod:`repro.tcam.reference`.
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
        t_eval: float | None = None,
    ) -> None:
        if sensing not in SENSING_STYLES:
            raise TCAMError(f"sensing must be one of {SENSING_STYLES}, got {sensing!r}")
        if sensing == "current_race" and t_eval is not None:
            raise TCAMError(
                "a current-race array's evaluation window is its race amp's cutoff; "
                "t_eval applies to precharge-style sensing only"
            )
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
        self._faults: FaultMap | None = None
        self._faults_seen_version = -1
        self._faults_empty = True
        # The per-key reference's memo of fault-signature results for one
        # fault map at one version: (map, version, {signature: result}),
        # kept by repro.tcam.reference._fault_memo.
        self._fault_oracle: tuple | None = None
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
            self.race_amp = CurrentRaceSenseAmp(vdd=self.vdd)
            self.precharge = None
            self.sense_amp = None
            sa_input_cap = self.race_amp.input_capacitance

        # Match-line capacitance ---------------------------------------------
        ml_length = cols * cell_w
        self.c_ml = (
            cols * cell.c_ml_per_cell
            + M2_WIRE.capacitance(ml_length)
            + sa_input_cap
            + 0.1e-15  # precharge / race-source device junction
        )

        # Search lines -------------------------------------------------------
        self.search_line = SearchLine(
            n_rows=rows,
            c_gate_per_cell=cell.c_sl_gate_per_cell,
            cell_pitch=cell_h,
            wire=M4_WIRE,
        )
        self._sl_r_driver = 2.0e3  # sized driver for the SL RC
        self.encoder = PriorityEncoder(rows)

        # Evaluation window ---------------------------------------------------
        if sensing == "precharge":
            self.t_eval = t_eval if t_eval is not None else self._default_t_eval()
            if self.t_eval <= 0.0:
                raise TCAMError(f"t_eval must be positive, got {self.t_eval}")
        else:
            self.t_eval = self.race_amp.cutoff_time(self.c_ml)

        # Every ledger booking below goes through this estimator, which
        # reproduces the historical inline formulas bit for bit; assign
        # another to study an alternative cost model.
        self.estimator = ArrayEstimator(self)

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
        return TernaryWord(self._stored[_check_row(row, self.geometry.rows, "word_at")])

    def valid_mask(self) -> np.ndarray:
        """Copy of the per-row valid bits."""
        return self._valid.copy()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def write(self, row: int, word: TernaryWord) -> WriteOutcome:
        """Store ``word`` at ``row``, paying per-cell transition costs.

        The costs come from the estimator's cached ``(old, new)``
        transition tables (:meth:`_store_rows` on a one-row block).  The
        row and the width are validated before anything moves.  Every
        write moves the content version once, so the next batch re-packs
        the kernel's content planes; the compiled class tables depend
        only on the electrical configuration and survive.
        """
        row = _check_row(row, self.geometry.rows, "write")
        ledger, latency, changed = self._store_rows(
            row, trit_block([word], self.geometry.cols, "write")
        )
        return WriteOutcome(row=row, energy=ledger, latency=latency, cells_changed=changed)

    def invalidate(self, row: int) -> None:
        """Remove ``row`` from match participation (erase to all-X).

        Moves the content version, like :meth:`write`.
        """
        row = _check_row(row, self.geometry.rows, "invalidate")
        self._content_version += 1
        self._stored[row] = int(Trit.X)
        self._valid[row] = False

    def load(self, words, start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows; the same call as
        :meth:`load_rows`."""
        return self.load_rows(words, start_row)

    def load_rows(self, words, start_row: int = 0) -> EnergyLedger:
        """Bulk-write ``words`` into consecutive rows with one version bump.

        ``words`` is an ``(n, cols)`` matrix of trit codes or a sequence
        of :class:`TernaryWord` (:func:`~repro.tcam.trit.trit_block`).
        The whole block is validated before any row is stored, then
        priced in one gather over the estimator's ``(old, new)``
        transition tables (:meth:`_store_rows`).  The WRITE entry is the
        float a :meth:`write` loop over the same rows books in its
        merged ledger, row sums added in row order.  ``_content_version``
        moves once for the whole corpus instead of once per row -- the
        difference between one SoA rebuild and 100k of them when a
        retrieval corpus loads.
        """
        start_row = _check_count(start_row, "load_rows start_row", 0)
        block = trit_block(words, self.geometry.cols, "load_rows")
        if start_row + len(block) > self.geometry.rows:
            raise TCAMError(
                f"cannot load {len(block)} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        if not len(block):
            return EnergyLedger()
        return self._store_rows(start_row, block)[0]

    def _store_rows(self, start_row: int, new: np.ndarray) -> tuple[EnergyLedger, float, int]:
        """Store the validated trit block ``new`` at ``start_row``.

        Prices the block (:func:`_price_rows`), then moves the content
        version once and updates wear, content and valid bits from
        ``old != new``.  Returns ``(ledger, latency, cells_changed)``.
        """
        block = slice(start_row, start_row + len(new))
        old = self._stored[block]
        ledger, latency, changed = _price_rows(self.estimator.write_table, old, new)
        n_changed = int(np.count_nonzero(changed))
        self._content_version += 1
        self._write_counts[block][changed] += 1
        self._stored[block] = new
        self._valid[block] = True
        m = obs.metrics()
        if m is not None:
            m.counter("tcam.writes").inc(len(new))
            m.counter("tcam.cells_changed").inc(n_changed)
            m.counter("energy.write").inc(ledger.total)
        return ledger, latency, n_changed

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def attach_faults(self, faults: FaultMap | None) -> None:
        """Attach a defect map; searches then run the fault-injected path.

        Faulty cells perturb the match-line discharge itself (their
        pull-down composition feeds the same RK4 integration healthy
        rows use), so faults manifest as wrong *sensed* decisions, not
        output bit-flips.  An **empty** map is equivalent to no map:
        the search path taken is the ordinary one, bit for bit.  Searches
        take the fault-aware kernel; the per-key faulty body in
        :mod:`repro.tcam.reference` is its test oracle.

        Attaching (and any later mutation of the attached map, detected
        through :attr:`FaultMap.version`) moves the content version.

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
        self._content_version += 1

    def detach_faults(self) -> None:
        """Remove the attached defect map."""
        self.attach_faults(None)

    @property
    def faults(self) -> FaultMap | None:
        """The attached defect map, or ``None``."""
        return self._faults

    def _fault_injection_active(self) -> bool:
        """True when a non-empty fault map must shape the next search.

        Re-inspects the attached map when its version counter moved
        (in-place mutation after attach), moving the content version once
        per such change.
        """
        fm = self._faults
        if fm is None:
            return False
        if fm.version != self._faults_seen_version:
            self._content_version += 1
            self._faults_seen_version = fm.version
            self._faults_empty = fm.is_empty()
        return not self._faults_empty

    def _fault_sig_classes(self, sigs: list[tuple]) -> list[_PrechargeClassResult]:
        """Integrate retention-degraded signatures in one stacked RK4 pass.

        Same integrator as the nominal classes (:meth:`_integrate_lines`);
        each signature's composite current sums its strong pull-downs,
        its weak ones in ``weak_offsets`` order and its leaking cells, and
        every stacked element integrates exactly as it would alone.
        """
        n_strong, weak, n_leak = zip(*sigs)
        lengths = np.array([len(w) for w in weak])
        # Weak shifts left-aligned in an (n, width) matrix, row-major.
        mask = np.arange(lengths.max()) < lengths[:, np.newaxis]
        offsets = np.zeros(mask.shape)
        offsets[mask] = [dvt for w in weak for dvt in w]
        n_strong, n_leak = np.array(n_strong), np.array(n_leak)
        i_pulldown, i_leak = self.cell.i_pulldown, self.cell.i_leak

        def currents(v: np.ndarray) -> np.ndarray:
            return composite_current(
                v, i_pulldown, i_leak, n_strong, n_leak, offsets, mask
            )

        with obs.span("array.integrate_faulty", n_classes=len(sigs)):
            v_ends = self._integrate_lines(currents, len(sigs))
        return [self._precharge_class_from_v_end(float(v_end)) for v_end in v_ends]

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------

    def search(
        self, key: TernaryWord | np.ndarray, row_mask: np.ndarray | None = None
    ) -> SearchOutcome:
        """Execute one search and account its energy and timing.

        A one-key :meth:`search_batch`: the key and ``row_mask`` are
        validated before any state moves, then the key runs through the
        compiled kernel, bit-identical to the per-key reference
        (:func:`repro.tcam.reference.search`).  When an observability
        session is active, the search is traced as an ``array.search``
        span whose per-phase children carry exact slices of the returned
        ledger (see :data:`_SPAN_ENERGY_GROUPS`).

        Args:
            key: Search key (may contain X columns, which are masked): a
                :class:`TernaryWord` or a 1-D row of trit codes.
            row_mask: Optional per-row evaluation mask.  Rows outside the
                mask are not precharged, not sensed and cannot match --
                the selective-precharge mechanism used by
                :class:`~repro.tcam.bank.SegmentedBank`.
        """
        packed = trit_block([key], self.geometry.cols, "search")
        active = self._active_rows(row_mask, "search")
        return self._traced(
            lambda: self._search_batch_impl(packed, active),
            "search",
            one_key=True,
            sensing=self.sensing,
        )[0]

    def _active_rows(self, row_mask: np.ndarray | None, api: str) -> np.ndarray:
        """The per-row evaluation mask, validated (all rows by default);
        ``api`` names the caller in the error."""
        if row_mask is None:
            return np.ones(self.geometry.rows, dtype=bool)
        active = np.asarray(row_mask, dtype=bool)
        if active.shape != (self.geometry.rows,):
            raise TCAMError(
                f"{api} row_mask must have shape ({self.geometry.rows},), got {active.shape}"
            )
        return active

    def search_batch(
        self, keys, row_mask: np.ndarray | None = None
    ) -> SearchBatch | list[SearchOutcome]:
        """Execute many searches on the compiled kernel.

        Returns a :class:`SearchBatch` (``[]`` for no keys): columns of
        the results that, indexed or iterated, are exactly the
        :class:`SearchOutcome` sequence the per-key reference
        (:func:`repro.tcam.reference.search`) produces key by key
        (including the sequential search-line toggle semantics: the first
        key toggles against the array's current drive state and each
        subsequent key against its predecessor), but mismatch counts come
        from one SoA matmul and per-class sensing results from the
        compiled tables (:meth:`_search_batch_kernel`).  With a non-empty
        fault map the batch runs the fault-aware kernel
        (:meth:`_search_batch_faulty_kernel`).

        The whole batch (key codes and widths, ``row_mask`` shape) is
        validated before any key is searched, so a rejected batch leaves
        the search-line drive state and the metrics untouched.

        Args:
            keys: Search keys of the array's width: an ``(n, cols)``
                matrix of trit codes or a sequence of
                :class:`TernaryWord` (:func:`~repro.tcam.trit.trit_block`).
            row_mask: Optional per-row evaluation mask applied to every
                key in the batch (as in :meth:`search`).
        """
        packed = trit_block(keys, self.geometry.cols, "search_batch")
        active = self._active_rows(row_mask, "search_batch")
        if not len(packed):
            return []
        return self._traced(
            lambda: self._search_batch_impl(packed, active),
            "search_batch",
            sensing=self.sensing,
            n_keys=len(packed),
        )

    def _search_batch_impl(self, packed: np.ndarray, active: np.ndarray) -> SearchBatch:
        """The kernel tail for validated keys and row mask: the
        fault-aware one while a non-empty fault map is attached."""
        faulty = self._fault_injection_active()
        soa = self._soa_state()
        if faulty:
            return self._search_batch_faulty_kernel(packed, active, soa)
        return self._search_batch_kernel(packed, active, soa)

    # -- observability booking -------------------------------------------------

    def _traced(
        self, run: Callable[[], Sequence], api: str, one_key: bool = False, **attrs
    ) -> Sequence:
        """Run a kernel tail under the ``array.<api>`` span and book
        search and kernel metrics.

        A scalar call (``one_key``) is a one-key batch whose span keeps
        the scalar shape: the outcome's delay, its first match, and one
        child per phase holding an exact slice of the outcome ledger
        (:meth:`~repro.obs.span.Span.split_energy`, which only reads the
        ledger).  A batch span holds the merged ledger
        (:meth:`~repro.tcam.outcome.BatchColumns.energy_ledger`), which a
        :class:`SearchBatch` forms from its columns without building an
        outcome.  Kernel counters are delta-synced into the registry once
        per call rather than per lookup, keeping the hot path free of
        registry calls.
        """
        with obs.span(
            "array." + api, rows=self.geometry.rows, cols=self.geometry.cols, **attrs
        ) as sp:
            m = obs.metrics()
            eng = self.kernel
            before = (eng.table_hits, eng.rows_built)
            outcomes = run()
            if sp is not None:
                if one_key:
                    outcome = outcomes[0]
                    ledger = outcome.energy
                    sp.set_delay(outcome.search_delay)
                    sp.annotate(first_match=outcome.first_match)
                    sp.split_energy(ledger, _SPAN_ENERGY_GROUPS)
                else:
                    ledger = as_batch(outcomes).energy_ledger()
                    sp.add_energy(ledger)
                self._book_batch_metrics(len(outcomes), ledger)
            if m is not None:
                after = (eng.table_hits, eng.rows_built)
                for counter, prev, now in zip(
                    ("kernels.table_hits", "kernels.rows_built"), before, after
                ):
                    m.counter(counter).inc(now - prev)
            return outcomes

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

    # -- compiled kernel -------------------------------------------------------

    @property
    def kernel(self):
        """The compiled :class:`~repro.kernels.KernelEngine`, built on first use.

        Its class tables depend only on the electrical configuration, so
        one engine serves the array for its lifetime; rows compile
        lazily (or eagerly via :meth:`~repro.kernels.KernelEngine.precompute`).
        """
        if self._kernel is None:
            from ..kernels import KernelEngine

            self._kernel = KernelEngine(self)
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

    def _search_batch_kernel(
        self, packed: np.ndarray, active: np.ndarray, soa
    ) -> SearchBatch:
        """Kernel tail of :meth:`_search_batch_impl`: one fused numpy pass.

        Mismatch counts come from the SoA matmul (exact integer float32
        accumulation), dense per-(key, class) row counts from one offset
        bincount per row subset, and per-class sensing quantities from
        the engine's dense class planes
        (:meth:`~repro.kernels.KernelEngine.planes`): every key gathers
        its own ``driven`` row, so the whole batch is one pass whatever
        its widths.  A driven-``d`` key meets classes ``0..d`` only, so
        the planes' ``0.0`` / no-match entries past the triangle only
        ever meet zero row counts.  Each component's per-key sum is
        one dense ``(keys, cols + 1)`` count x energy matrix summed by
        :func:`~repro.kernels.class_sums`: strictly left to right in
        ascending ``n_miss`` order, with absent and padded classes adding
        exactly ``0.0``, it reproduces the reference per-class
        ``ledger.add`` loop bit for bit.  Strobe and restore delays are
        masked maxima with ``initial=0.0``, the reference's
        ``max(0.0, ...)``.  The energy columns follow the reference
        booking order SL -> precharge/dissipation/sense (or race) ->
        encoder -> leakage.
        """
        eng = self.kernel
        rows, cols = self.geometry.rows, self.geometry.cols
        n_keys = packed.shape[0]
        with obs.span(
            "array.kernel_batch", n_keys=n_keys, sensing=self.sensing
        ) as sp:
            miss_all = soa.mismatch_counts(packed)
            driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
            toggles = self._batch_toggles(packed)
            e_toggle = self.estimator.sl_toggle_energy()
            # int * float == float64(int) * float bit for bit (exact ints).
            sl_e = toggles.astype(np.float64) * e_toggle
            sl_delay = self.sl_settle_delay
            enc_energy = np.full(n_keys, self.estimator.encode_energy())
            enc_delay = self.encoder.delay
            # Exactly the reference leakage expression sans the trailing
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

            if not active.any():
                # No row is sensed: only SL, encoder and leakage book.
                if self.sensing == "precharge":
                    t_sense = t_cycle = self.t_eval
                else:
                    t_sense = t_cycle = self.race_amp.t_window
                cycle_time = sl_delay + t_cycle
                return SearchBatch(
                    match_mask=np.zeros((n_keys, rows), dtype=bool),
                    first_match=np.full(n_keys, -1),
                    components=(_SL, _ENC, _LEAK),
                    energy=np.column_stack(
                        (sl_e, enc_energy, np.full(n_keys, k_leak * cycle_time))
                    ),
                    search_delay=np.full(n_keys, sl_delay + t_sense + enc_delay),
                    cycle_time=np.full(n_keys, cycle_time),
                    functional_errors=np.zeros(n_keys, dtype=np.int64),
                    class_counts=counts_valid,
                )

            # Row ``d`` of every plane is the compiled row of width ``d``.
            planes = eng.planes(np.unique(driven_all).tolist())

            def gather(field: str) -> np.ndarray:
                return planes[field][driven_all]

            present = counts_active > 0
            eng.table_hits += int(np.count_nonzero(present))
            cnt = counts_active.astype(np.float64)
            if self.sensing == "precharge":
                # ``initial=0.0`` is the reference's ``max(0.0, ...)``.
                t_sa = np.where(present, gather("t_sense"), 0.0).max(axis=1, initial=0.0)
                t_res = np.where(present, gather("t_restore"), 0.0).max(axis=1, initial=0.0)
                t_sense = self.t_eval + t_sa
                search_delay = sl_delay + t_sense + enc_delay
                cycle_time = sl_delay + (t_sense + t_res)
                components = (_SL, _PRE, _DISS, _SA, _ENC, _LEAK)
                sensed = [
                    class_sums(cnt * gather(field))
                    for field in ("e_restore", "e_diss", "e_sense")
                ]
            else:
                cutoff = self.race_amp.cutoff_time(self.c_ml)
                search_delay = np.full(n_keys, sl_delay + cutoff + enc_delay)
                cycle_time = np.full(n_keys, sl_delay + 1.2 * cutoff)
                components = (_SL, _RACE, _ENC, _LEAK)
                sensed = [class_sums(cnt * gather("energy"))]

            av = active & self._valid
            eff = planes["is_match"][driven_all[:, np.newaxis], miss_all]
            eff &= av
            logical = (miss_all == 0) & av
            batch = SearchBatch(
                match_mask=eff,
                first_match=np.where(eff.any(axis=1), np.argmax(eff, axis=1), -1),
                components=components,
                energy=np.column_stack((sl_e, *sensed, enc_energy, k_leak * cycle_time)),
                search_delay=search_delay,
                cycle_time=cycle_time,
                functional_errors=np.count_nonzero(eff != logical, axis=1),
                class_counts=counts_valid,
            )
            if sp is not None:
                sp.annotate(rows_built=eng.rows_built)
            return batch

    def _search_batch_faulty_kernel(
        self, packed: np.ndarray, active: np.ndarray, soa
    ) -> SearchBatch:
        """Fault-aware kernel tail of :meth:`_search_batch_impl`.

        Bit-identical, ledger booking order included, to calling the
        per-key faulty reference
        (:func:`repro.tcam.reference._search_impl_faulty`) once per key:

        * per-row pull-down, effective and intended mismatch counts come
          from one matmul over the snapshot's :class:`FaultPlanes`;
        * sensed rows without a weak pull-down are electrically nominal
          ``(n_pull, driven)`` classes and gather their results from the
          engine's class planes at ``[driven, n_pull]``;
        * retention-degraded rows group into ``(n_strong, weak_offsets,
          n_leak)`` signatures, precharge results of the batch's unseen
          ones integrate in one stacked pass cached on the engine
          (:meth:`KernelEngine.fault_classes`), current-race ones take
          the reference current sum;
        * SA-offset rows re-sense their endpoint (or race their current)
          through the estimator with the offset; dead rows are not
          sensed;
        * per-component energies accumulate strictly left to right along
          the sensed rows (:func:`~repro.kernels.class_sums`), as the
          reference's per-row ``ledger.add`` loop does.
        """
        from ..kernels.soa import key_planes

        eng = self.kernel
        fp = soa.faults
        rows, cols = self.geometry.rows, self.geometry.cols
        precharge = self.sensing == "precharge"
        n_keys = packed.shape[0]
        with obs.span(
            "array.fault_kernel_batch", n_keys=n_keys, sensing=self.sensing
        ) as sp:
            n_pull_all, miss_eff_all, miss_all = fp.counts(key_planes(packed))
            driven = np.count_nonzero(packed != int(Trit.X), axis=1)
            toggles = self._batch_toggles(packed)
            e_toggle = self.estimator.sl_toggle_energy()
            sensed_idx = np.flatnonzero(active & ~fp.dead)
            ns = sensed_idx.size
            n_pull = n_pull_all[:, sensed_idx]  # (key, sensed row)

            # Retention-degraded (key, sensed row) groups: contiguous runs
            # of weak cells sharing a key and a row, in column order.
            row_pos = np.full(rows, -1)
            row_pos[sensed_idx] = np.arange(ns)
            gk, wi = fp.weak_cells(packed)
            gr = row_pos[fp.ret_row[wi]]
            keep = gr >= 0
            gk, gr, wi = gk[keep], gr[keep], wi[keep]
            starts = np.flatnonzero(
                np.r_[True, (gk[1:] != gk[:-1]) | (gr[1:] != gr[:-1])]
            ) if gk.size else np.zeros(0, dtype=np.intp)
            gk, gr = gk[starts], gr[starts]
            ends = np.r_[starts[1:], wi.size].astype(np.intp)
            weak = np.zeros((n_keys, ns), dtype=bool)
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

            # Per-(key, sensed row) class results: nominal gathers from
            # the class planes (weak entries are overwritten below).
            if ns:
                planes = eng.planes(np.unique(driven).tolist())
                at = (driven[:, np.newaxis], n_pull)
                cls = {name: plane[at] for name, plane in planes.items()}
            else:
                cls = {"is_match": np.zeros((n_keys, 0), dtype=bool)}
            is_match = cls["is_match"]
            classes = n_pull + (np.arange(n_keys) * (cols + 1))[:, np.newaxis]
            eng.table_hits += int(
                np.count_nonzero(np.bincount(classes[~weak], minlength=n_keys * (cols + 1)))
            ) + len(set(zip(gk.tolist(), gid.tolist())))

            offset_cols = np.flatnonzero(fp.sa_offset[sensed_idx] != 0.0)
            if precharge:
                if distinct:
                    found = eng.fault_classes(distinct)
                    res = [found[sig] for sig in distinct]
                    for name, plane in cls.items():
                        plane[gk, gr] = np.array([getattr(r, name) for r in res])[gid]
                # SA-offset rows re-strobe their endpoint with the offset.
                for j in offset_cols.tolist():
                    offset = float(fp.sa_offset[sensed_idx[j]])
                    for i, v in enumerate(cls["v_end"][:, j].tolist()):
                        dec = self.estimator.sense(v, offset)
                        is_match[i, j] = dec.is_match
                        cls["t_sense"][i, j] = dec.delay
                        cls["e_sense"][i, j] = dec.energy
            elif ns:
                # Weak and SA-offset entries race their reference current.
                v_trip = self.race_amp.v_trip
                i_pd0 = self.cell.i_pulldown(v_trip)
                i_lk0 = self.cell.i_leak(v_trip)
                special = dict(zip(zip(gk.tolist(), gr.tolist()), sigs))
                for j in offset_cols.tolist():
                    for i in range(n_keys):
                        if (i, j) not in special:
                            n_p = int(n_pull[i, j])
                            special[(i, j)] = (n_p, (), int(driven[i]) - n_p)
                for (i, j), (n_strong, offsets, n_leak) in special.items():
                    i_total = n_strong * i_pd0 + n_leak * i_lk0
                    for dvt in offsets:
                        i_total += self.cell.i_pulldown(v_trip, dvt)
                    dec = self.estimator.race(i_total, float(fp.sa_offset[sensed_idx[j]]))
                    is_match[i, j] = dec.is_match
                    cls["energy"][i, j] = dec.energy

            # Per-key columns, in the reference's booking order.
            sl_delay = self.sl_settle_delay
            enc_delay = self.encoder.delay
            if precharge:
                if ns:
                    t_sense = self.t_eval + np.maximum(cls["t_sense"].max(axis=1), 0.0)
                    t_cycle = t_sense + np.maximum(cls["t_restore"].max(axis=1), 0.0)
                    booked = {
                        _PRE: class_sums(cls["e_restore"]),
                        _DISS: class_sums(cls["e_diss"]),
                        _SA: class_sums(cls["e_sense"]),
                    }
                else:
                    t_sense = t_cycle = np.full(n_keys, self.t_eval)
                    booked = {}
            elif ns:
                cutoff = self.race_amp.cutoff_time(self.c_ml)
                t_sense = np.full(n_keys, cutoff)
                t_cycle = np.full(n_keys, 1.2 * cutoff)
                booked = {_RACE: class_sums(cls["energy"])}
            else:
                t_sense = t_cycle = np.full(n_keys, self.race_amp.t_window)
                booked = {}
            cycle_time = sl_delay + t_cycle
            energy = np.column_stack((
                toggles.astype(np.float64) * e_toggle,
                *booked.values(),
                np.full(n_keys, self.estimator.encode_energy()),
                self.estimator.leakage_power(self.vdd) * cycle_time,
            ))
            # The reference books through ``EnergyLedger.add``, which
            # rejects negative and non-finite energy.
            bad = ~((energy >= 0.0) & (energy < np.inf))
            if bad.any():
                raise ReproError(
                    f"energy must be non-negative and finite, got {energy[bad][0]}"
                )

            valid = self._valid
            effective = np.zeros((n_keys, rows), dtype=bool)
            effective[:, sensed_idx] = is_match
            effective &= valid
            logical = (miss_all == 0) & (valid & active)
            errors = np.count_nonzero(effective != logical, axis=1)
            m = obs.metrics()
            if m is not None:
                m.counter("faults.searches").inc(n_keys)
                m.counter("faults.functional_errors").inc(int(errors.sum()))

            batch = SearchBatch(
                match_mask=effective,
                first_match=np.where(effective.any(axis=1), np.argmax(effective, axis=1), -1),
                components=(_SL, *booked, _ENC, _LEAK),
                energy=energy,
                search_delay=sl_delay + t_sense + enc_delay,
                cycle_time=cycle_time,
                functional_errors=errors,
                class_counts=self._valid_class_counts(miss_eff_all[:, valid]),
            )
            if sp is not None:
                sp.annotate(
                    fault_signatures=len(distinct),
                    rows_built=eng.rows_built,
                )
            return batch

    # -- search-line booking -------------------------------------------------

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

    def _eval_grid(self) -> np.ndarray:
        """The RK4 time grid over the evaluation window."""
        return np.linspace(0.0, self.t_eval, RK4_GRID_POINTS)

    def _integrate_lines(
        self, currents: Callable[[np.ndarray], np.ndarray], n_lines: int
    ) -> np.ndarray:
        """Strobe-time voltages of ``n_lines`` match lines released from
        the precharge target, line ``i`` discharged by ``currents(v)[i]``:
        one stacked RK4 pass on :meth:`_eval_grid`, elementwise identical
        to integrating each line alone."""
        return discharge_waveform_batch(
            self.c_ml,
            currents,
            np.full(n_lines, self.precharge.target_voltage()),
            self._eval_grid(),
        )

    def _ml_voltages_after_eval(self, n_miss, driven) -> list[float]:
        """ML voltages at strobe time of the ``(n_miss, driven)`` classes.

        ``n_miss`` is a sequence of mismatch counts and ``driven`` the
        matching driven-column counts (or one count for all).  Every
        class integrates in the same stacked pass
        (:meth:`_integrate_lines`), so the cost of the Python-level step
        loop is shared across the whole class set.  A fully masked class
        (``driven == 0``) cannot discharge and stays at the precharge
        target.
        """
        n_miss = np.asarray(n_miss, dtype=np.int64)
        driven = np.broadcast_to(np.asarray(driven, dtype=np.int64), n_miss.shape)
        n_match = driven - n_miss
        if (n_miss < 0).any() or (n_match < 0).any():
            raise TCAMError("inconsistent mismatch accounting")
        out = np.full(n_miss.size, self.precharge.target_voltage())
        live = driven > 0
        if live.any():
            n_miss, n_match = n_miss[live], n_match[live]
            i_pulldown, i_leak = self.cell.i_pulldown, self.cell.i_leak
            out[live] = self._integrate_lines(
                lambda v: composite_current(v, i_pulldown, i_leak, n_miss, n_match),
                n_miss.size,
            )
        return out.tolist()

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

    def _race_class_from_current(self, i_total: float) -> _RaceClassResult:
        """Race-amp result of a line drawing ``i_total`` at the trip point."""
        decision = self.estimator.race(i_total)
        return _RaceClassResult(
            is_match=decision.is_match, energy=decision.energy, delay=decision.delay
        )

    # ------------------------------------------------------------------
    # Approximate search (associative-memory mode, used by the HDC and
    # retrieval workloads)
    # ------------------------------------------------------------------

    def _require_distance_mode(self, api: str) -> None:
        """Guard shared by the distance searches; ``api`` names the caller.

        They sense in the time domain, so they need precharge-style
        sensing, and they do not model fault injection.
        """
        if self.sensing != "precharge":
            raise TCAMError(f"{api}() requires precharge-style sensing")
        if self._fault_injection_active():
            raise TCAMError(
                f"{api}() does not support fault injection; detach the fault map first"
            )

    def _distance_keys(self, keys, api: str) -> np.ndarray:
        """The packed keys of a distance search, after its mode guard."""
        self._require_distance_mode(api)
        return trit_block(keys, self.geometry.cols, api)

    def nearest_match(self, key: TernaryWord | np.ndarray) -> NearestMatchOutcome:
        """Best-match search: the row with the fewest mismatching cells.

        Physically this is time-domain sensing: every match line is
        precharged and released, and the *last* line to cross the sense
        reference (or the one that never does) is the winner, since lines
        discharge faster the more pull-downs they carry.  The evaluation
        window therefore extends until the winner is separable from the
        runner-up, and every line with at least one mismatch fully
        discharges -- which is why associative-memory mode costs more per
        search than exact-match mode.

        A one-key :meth:`nearest_match_batch`, traced as an
        ``array.nearest_match`` span.  Only supported for precharge-style
        sensing.
        """
        packed = self._distance_keys([key], "nearest_match")
        return self._traced(
            lambda: self._nearest_match_batch_kernel(packed), "nearest_match", one_key=True
        )[0]

    def nearest_match_batch(self, keys) -> list[NearestMatchOutcome]:
        """Best-match search over a batch on the fused distance kernel.

        Outcome by outcome what the per-key reference
        (:func:`repro.tcam.reference.nearest_match`) returns key by key:
        one SoA matmul yields the whole mismatch matrix, and the windows
        and winner droops come from the compiled tables
        (:meth:`_nearest_match_batch_kernel`).
        """
        packed = self._distance_keys(keys, "nearest_match_batch")
        if not len(packed):
            return []
        return self._traced(
            lambda: self._nearest_match_batch_kernel(packed),
            "nearest_match_batch",
            n_keys=len(packed),
        )

    def threshold_match(
        self, key: TernaryWord | np.ndarray, max_distance: int
    ) -> ThresholdMatchOutcome:
        """Tolerance search: every row within ``max_distance`` mismatches.

        TAP-CAM-style approximate matching: the sense strobe is delayed
        exactly long enough for the first *excluded* mismatch class
        (``max_distance + 1``) to cross the reference, so rows carrying up
        to ``max_distance`` conducting cells still read as matches.  The
        verdict is a time-domain crossing detection like
        :meth:`nearest_match`, so only the sense amplifier's internal
        swing books -- which is what makes a tolerance probe cheaper per
        query than an exact-match :meth:`search` scan.

        A one-key :meth:`threshold_match_batch`, traced as an
        ``array.threshold_match`` span.  Only supported for
        precharge-style sensing.
        """
        packed = self._distance_keys([key], "threshold_match")
        max_distance = _check_count(max_distance, "threshold_match max_distance", 0)
        return self._traced(
            lambda: self._threshold_match_batch_kernel(packed, max_distance),
            "threshold_match",
            one_key=True,
            max_distance=max_distance,
        )[0]

    def threshold_match_batch(self, keys, max_distance: int) -> list[ThresholdMatchOutcome]:
        """Tolerance search over a batch on the fused distance kernel.

        Outcome by outcome what the per-key reference
        (:func:`repro.tcam.reference.threshold_match`) returns key by key
        (:meth:`_threshold_match_batch_kernel`).
        """
        packed = self._distance_keys(keys, "threshold_match_batch")
        max_distance = _check_count(max_distance, "threshold_match_batch max_distance", 0)
        if not len(packed):
            return []
        return self._traced(
            lambda: self._threshold_match_batch_kernel(packed, max_distance),
            "threshold_match_batch",
            n_keys=len(packed),
            max_distance=max_distance,
        )

    def topk_match(self, key: TernaryWord | np.ndarray, k: int) -> TopKMatchOutcome:
        """k-nearest search: the ``k`` rows with the fewest mismatches.

        Time-domain sensing as in :meth:`nearest_match`, with the strobe
        delayed until the class one past the k-th winner crosses the
        reference; the priority encoder then drains the k winners
        sequentially (ascending distance, ties broken by row index).

        A one-key :meth:`topk_match_batch`, traced as an
        ``array.topk_match`` span.  Only supported for precharge-style
        sensing.
        """
        packed = self._distance_keys([key], "topk_match")
        k = _check_count(k, "topk_match k", 1)
        return self._traced(
            lambda: self._topk_match_batch_kernel(packed, k), "topk_match", one_key=True, k=k
        )[0]

    def topk_match_batch(self, keys, k: int) -> list[TopKMatchOutcome]:
        """k-nearest search over a batch on the fused distance kernel.

        Outcome by outcome what the per-key reference
        (:func:`repro.tcam.reference.topk_match`) returns key by key
        (:meth:`_topk_match_batch_kernel`).
        """
        packed = self._distance_keys(keys, "topk_match_batch")
        k = _check_count(k, "topk_match_batch k", 1)
        if not len(packed):
            return []
        return self._traced(
            lambda: self._topk_match_batch_kernel(packed, k),
            "topk_match_batch",
            n_keys=len(packed),
            k=k,
        )

    # -- fused distance kernel tails -------------------------------------------

    def _distance_kernel_prologue(self, packed: np.ndarray, body: Callable, *extra):
        """Shared front half of the distance-kernel tails.

        One SoA matmul for the full ``(n_keys, rows)`` mismatch matrix
        (bit-identical to the broadcast reference), plus the per-key
        driven counts and sequential search-line toggle chain.  When the
        array holds no valid row, every key takes the per-key reference
        ``body`` (one of :mod:`repro.tcam.reference`'s ``_*_key``, given
        ``extra`` after the key state), which then books the search
        lines only.

        Returns ``(outcomes, st)``: the reference outcomes and ``None``
        when no row is valid, else a list of ``None`` for the tail to
        fill and the :class:`_DistanceBatch` the tails share (the
        estimator terms are the reference's calls, made once).
        """
        miss_all = self._soa_state().mismatch_counts(packed)
        driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
        toggles = self._batch_toggles(packed)
        e_toggle = self.estimator.sl_toggle_energy()
        valid_idx = np.flatnonzero(self._valid)
        if not valid_idx.size:
            v_pre = self.precharge.target_voltage()
            return [
                body(self, miss, int(d), int(tg), e_toggle, v_pre, valid_idx, *extra)
                for miss, d, tg in zip(miss_all, driven_all, toggles)
            ], None
        n_valid = int(valid_idx.size)
        est = self.estimator
        return [None] * len(packed), _DistanceBatch(
            miss_v=miss_all[:, valid_idx],
            driven=driven_all,
            # int * float == float64(int) * float bit for bit (exact ints).
            sl_e=toggles.astype(np.float64) * e_toggle,
            valid_idx=valid_idx,
            r0=est.ml_precharge_energy(0.0, 1),
            e_sa=est.sense_idle_energy(n_valid),
            enc_e=est.encode_energy(),
            enc_delay=self.encoder.delay,
            sl_delay=self.sl_settle_delay,
            k_leak=self.standby_power(),
            diss_tab=self.kernel.diss0_table(n_valid),
        )

    def _nearest_match_batch_kernel(self, packed: np.ndarray) -> list[NearestMatchOutcome]:
        """Kernel tail of :meth:`nearest_match_batch`.

        Winner/runner-up partitioning is vectorized over the whole
        mismatch matrix; evaluation windows come from the engine's
        crossing-time plane (:meth:`~repro.kernels.KernelEngine.windows`,
        the same floats :func:`repro.tcam.reference._nearest_window`
        computes) and the winners' restore energies from its class
        planes.  The per-key ledgers repeat the reference adds in the
        reference order, with the estimator's count-scaled terms memoized
        per distinct count -- identical call, identical float.
        """
        eng = self.kernel
        n_keys = packed.shape[0]
        with obs.span("array.distance_kernel", mode="nearest", n_keys=n_keys):
            outcomes, st = self._distance_kernel_prologue(packed, reference._nearest_key)
            if st is None:
                return outcomes
            best_j = np.argmin(st.miss_v, axis=1)
            best_pos = st.valid_idx[best_j]
            bd = np.take_along_axis(st.miss_v, best_j[:, np.newaxis], axis=1)[:, 0]
            nl = np.count_nonzero(st.miss_v > bd[:, np.newaxis], axis=1)
            nw = st.valid_idx.size - nl

            # Windows past a key's triangle fall back to ``t_eval``.
            d_arr = st.driven
            ds = np.unique(d_arr).tolist()
            e_restore = eng.planes(ds)["e_restore"]
            win = eng.windows(ds)
            eng.table_hits += n_keys
            ru = bd + 1
            t_window = np.where(ru <= d_arr, win[d_arr, np.minimum(ru, d_arr)], self.t_eval)
            delays = (st.sl_delay + t_window) + st.enc_delay
            leak = st.k_leak * delays
            pre_losers = nl.astype(np.float64) * st.r0
            pre_winners = nw.astype(np.float64) * np.where(bd == 0, e_restore[d_arr, 0], st.r0)
            # Component totals, vectorized with the reference operand
            # grouping: two precharge adds fold to one elementwise sum
            # ((0.0 + a) + b == a + b); the winner dissipation term is
            # only added for distance > 0 (x + 0.0 == x for x >= 0.0).
            pre_tot = (pre_losers + pre_winners).tolist()
            diss_tot = (st.diss_tab[nl] + np.where(bd != 0, st.diss_tab[nw], 0.0)).tolist()
            return [
                NearestMatchOutcome(
                    pos,
                    dist,
                    EnergyLedger._from_booked({
                        _SL: sl,
                        _PRE: pre,
                        _DISS: dis,
                        _SA: st.e_sa,
                        _ENC: st.enc_e,
                        _LEAK: lk,
                    }),
                    dl,
                )
                for pos, dist, sl, pre, dis, lk, dl in zip(
                    best_pos.tolist(),
                    bd.tolist(),
                    st.sl_e.tolist(),
                    pre_tot,
                    diss_tot,
                    leak.tolist(),
                    delays.tolist(),
                )
            ]

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
        self, packed: np.ndarray, max_distance: int
    ) -> list[ThresholdMatchOutcome]:
        """Kernel tail of :meth:`threshold_match_batch`: the rows within
        ``max_distance`` are accepted, one encoder drain
        (:meth:`_accepted_kernel_tail` books them)."""
        n_keys = packed.shape[0]
        with obs.span("array.distance_kernel", mode="threshold", n_keys=n_keys):
            outcomes, st = self._distance_kernel_prologue(
                packed, reference._threshold_key, max_distance
            )
            if st is None:
                return outcomes
            within = st.miss_v <= max_distance
            n_match = np.count_nonzero(within, axis=1)
            # Match masks over all rows, and the priority encoder's
            # lowest-index winner of each: the first accepted valid row.
            masks = np.zeros((n_keys, self.geometry.rows), dtype=bool)
            masks[:, st.valid_idx] = within
            firsts = np.where(n_match > 0, st.valid_idx[np.argmax(within, axis=1)], -1)
            firsts = [f if f >= 0 else None for f in firsts.tolist()]
            n_match = n_match.tolist()
            self._accepted_kernel_tail(
                outcomes, st, within, np.full(n_keys, max_distance), 1,
                lambda q, ledger, delay: ThresholdMatchOutcome(
                    masks[q].copy(), firsts[q], n_match[q], max_distance, ledger, delay
                ),
            )
            return outcomes

    def _topk_match_batch_kernel(self, packed: np.ndarray, k: int) -> list[TopKMatchOutcome]:
        """Kernel tail of :meth:`topk_match_batch`: the classes up to the
        k-th winner's are accepted, one encoder drain per winner
        (:meth:`_accepted_kernel_tail` books them).

        Selection runs on a composite ``miss * n_valid + position`` key,
        which reproduces the reference's stable-sort tie-breaking
        (ascending distance, then row index) under ``argpartition``.
        """
        n_keys = packed.shape[0]
        with obs.span("array.distance_kernel", mode="topk", n_keys=n_keys):
            outcomes, st = self._distance_kernel_prologue(packed, reference._topk_key, k)
            if st is None:
                return outcomes
            miss_v = st.miss_v
            n_valid = int(st.valid_idx.size)
            comp = miss_v * np.int64(n_valid) + np.arange(n_valid, dtype=np.int64)
            n_take = min(k, n_valid)
            if n_take < n_valid:
                part = np.argpartition(comp, n_take - 1, axis=1)[:, :n_take]
                comp_sel = np.take_along_axis(comp, part, axis=1)
                order = np.argsort(comp_sel, axis=1)
                sel_j = np.take_along_axis(part, order, axis=1)
            else:
                sel_j = np.argsort(comp, axis=1)
            sel_dist = np.take_along_axis(miss_v, sel_j, axis=1)
            d_k = sel_dist[:, -1]
            sel_rows = st.valid_idx[sel_j].tolist()
            sel_dist_l = sel_dist.tolist()
            self._accepted_kernel_tail(
                outcomes, st, miss_v <= d_k[:, np.newaxis], d_k, n_take,
                lambda q, ledger, delay: TopKMatchOutcome(
                    tuple(sel_rows[q]), tuple(sel_dist_l[q]), k, ledger, delay
                ),
            )
            return outcomes

    def _accepted_kernel_tail(
        self, outcomes: list, st: _DistanceBatch, accepted: np.ndarray, last: np.ndarray,
        n_enc: int, make: Callable[[int, EnergyLedger, float], BaseOutcome],
    ) -> None:
        """Book every key of a tolerance or top-k batch: the kernel twin
        of :func:`repro.tcam.reference._book_accepted`.

        ``accepted`` marks each key's accepted valid rows (every class up
        to the key's ``last`` class) and ``n_enc`` is the priority
        encoder's drain count.  Rejected rows fully discharge; the strobe
        waits for class ``last + 1`` to cross.  Accepted-class restore
        and dissipation are dense count x plane-row products over the
        classes below the batch's largest cut, the classes at or past
        each key's cut zeroed, summed left to right by
        :func:`~repro.kernels.class_sums`: the reference's per-class
        accumulation (zero-count classes, and the ``0.0`` plane entries
        past a key's triangle, add exactly ``0.0``).  The per-key
        component totals fold as in the nearest kernel.
        ``make(q, ledger, delay)`` builds key ``q``'s outcome.
        """
        eng = self.kernel
        n_losers = st.valid_idx.size - np.count_nonzero(accepted, axis=1)
        cut = last + 1
        d_arr = st.driven
        ds = np.unique(d_arr).tolist()
        planes = eng.planes(ds)
        win = eng.windows(ds)
        eng.table_hits += len(outcomes)
        t_window = np.where(cut <= d_arr, win[d_arr, np.minimum(cut, d_arr)], self.t_eval)
        delays = (st.sl_delay + t_window) + float(n_enc) * st.enc_delay
        leak = st.k_leak * delays
        # Accepted classes are the first ``cut`` columns of each key's
        # class histogram, so no key books a class past the largest cut.
        n_acc = min(int(cut.max()), self.geometry.cols + 1)
        cnt = np.where(
            np.arange(n_acc) < cut[:, np.newaxis], self._valid_class_counts(st.miss_v)[:, :n_acc], 0
        ).astype(np.float64)
        e_pre = class_sums(cnt * planes["e_restore"][d_arr, :n_acc])
        e_diss = class_sums(cnt * planes["e_diss"][d_arr, :n_acc])
        # Reference booking folds to one elementwise sum per component:
        # (0.0 + losers) + accepted == losers + accepted.
        pre_tot = (n_losers.astype(np.float64) * st.r0 + e_pre).tolist()
        diss_tot = (st.diss_tab[n_losers] + e_diss).tolist()
        enc_e = float(n_enc) * st.enc_e
        for q, (sl, pre, dis, lk, dl) in enumerate(
            zip(st.sl_e.tolist(), pre_tot, diss_tot, leak.tolist(), delays.tolist())
        ):
            outcomes[q] = make(q, EnergyLedger._from_booked({
                _SL: sl,
                _PRE: pre,
                _DISS: dis,
                _SA: st.e_sa,
                _ENC: enc_e,
                _LEAK: lk,
            }), dl)

    # ------------------------------------------------------------------
    # Static characterization helpers (used by benches and analyses)
    # ------------------------------------------------------------------

    def sense_margin(self) -> float:
        """Worst-case V(match) - V(1-mismatch) at the strobe instant [V].

        Only meaningful for precharge-style sensing.
        """
        if self.sensing != "precharge":
            raise TCAMError("sense_margin() applies to precharge-style sensing only")
        cols = self.geometry.cols
        v_match, v_miss = self._ml_voltages_after_eval([0, 1], cols)
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


# The per-key reference builds this module's outcome types, so it binds
# after them; the distance-kernel tails call it when no row is valid.
from . import reference  # noqa: E402
