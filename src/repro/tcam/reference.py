"""Per-key reference bodies of the array's search operations.

Every public search of a :class:`~repro.tcam.array.TCAMArray` runs on
the compiled kernel: a scalar call is a one-key batch.  This module keeps
the per-key bodies the kernel is tested against, as plain functions of
an array:

* :func:`search` -- one exact-match search (healthy or fault-injected),
* :func:`nearest_match`, :func:`threshold_match`, :func:`topk_match` --
  the distance searches of the associative-memory mode.

Each function validates its input as the public method does, books the
same ledger in the same order, and advances the array's search-line
drive state exactly as a public call would, so a test can run the
reference on one array and the kernel on a twin and compare every
outcome field.  The reference integrates the mismatch classes it meets
by RK4 per key and reads no kernel state.  The distance-kernel tails
call the per-key distance bodies (``_nearest_key``, ``_threshold_key``,
``_topk_key``) for every key when the array holds no valid row.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .. import obs
from ..circuits.matchline import MatchLine, MatchLineLoad, composite_current
from ..circuits.searchline import count_toggles
from ..energy.accounting import EnergyLedger
from ..faults.faultmap import FaultKind
from .array import (
    _DISS,
    _ENC,
    _LEAK,
    _PRE,
    _RACE,
    _SA,
    _SL,
    NearestMatchOutcome,
    TCAMArray,
    ThresholdMatchOutcome,
    TopKMatchOutcome,
    _check_count,
    _PrechargeClassResult,
    _RaceClassResult,
)
from .batch import SearchOutcome
from .trit import TernaryWord, Trit, drive_matrix, mismatch_counts, trit_block

# ---------------------------------------------------------------------------
# Public oracle API
# ---------------------------------------------------------------------------


def search(
    array: TCAMArray, key: TernaryWord | np.ndarray, row_mask: np.ndarray | None = None
) -> SearchOutcome:
    """One exact-match search of ``key``, per-key reference body.

    Same arguments and outcome as :meth:`TCAMArray.search`; with a
    non-empty fault map attached it runs the fault-injected body.
    """
    key_arr = trit_block([key], array.geometry.cols, "search")[0]
    active = array._active_rows(row_mask, "search")
    if array._fault_injection_active():
        return _search_impl_faulty(array, key_arr, active)
    driven_cols = int(np.count_nonzero(key_arr != int(Trit.X)))
    miss = mismatch_counts(array._stored, key_arr)
    ledger = EnergyLedger()
    _book_searchline_energy(array, ledger, key_arr)
    return _search_key(array, ledger, miss, driven_cols, active)


def nearest_match(array: TCAMArray, key: TernaryWord | np.ndarray) -> NearestMatchOutcome:
    """Best-match search of ``key`` (:meth:`TCAMArray.nearest_match`)."""
    array._require_distance_mode("nearest_match")
    return _nearest_key(array, *_distance_key_state(array, key, "nearest_match"))


def threshold_match(
    array: TCAMArray, key: TernaryWord | np.ndarray, max_distance: int
) -> ThresholdMatchOutcome:
    """Tolerance search of ``key`` (:meth:`TCAMArray.threshold_match`)."""
    array._require_distance_mode("threshold_match")
    max_distance = _check_count(max_distance, "threshold_match max_distance", 0)
    return _threshold_key(
        array, *_distance_key_state(array, key, "threshold_match"), max_distance
    )


def topk_match(array: TCAMArray, key: TernaryWord | np.ndarray, k: int) -> TopKMatchOutcome:
    """k-nearest search of ``key`` (:meth:`TCAMArray.topk_match`)."""
    array._require_distance_mode("topk_match")
    k = _check_count(k, "topk_match k", 1)
    return _topk_key(array, *_distance_key_state(array, key, "topk_match"), k)


# ---------------------------------------------------------------------------
# Search-line booking
# ---------------------------------------------------------------------------


def _key_toggles(array: TCAMArray, key_arr: np.ndarray) -> int:
    """Search-line toggles of driving the trit codes ``key_arr`` after
    the array's current drive state, which the key then becomes."""
    drive = tuple(drive_matrix(key_arr).tolist())
    if array._last_drive is None:
        previous = tuple(0 for _ in drive)
    else:
        previous = array._last_drive
    array._last_drive = drive
    return count_toggles(previous, drive)


def _book_searchline_energy(array: TCAMArray, ledger: EnergyLedger, key_arr: np.ndarray) -> None:
    ledger.add(_SL, _key_toggles(array, key_arr) * array.estimator.sl_toggle_energy())


# ---------------------------------------------------------------------------
# Per-mismatch-class sensing
# ---------------------------------------------------------------------------


def _precharge_classes(
    array: TCAMArray, n_misses: Iterable[int], driven_cols: int
) -> list[_PrechargeClassResult]:
    """Full sensing results of precharge classes sharing ``driven_cols``
    (one stacked RK4 pass)."""
    v_ends = array._ml_voltages_after_eval(list(n_misses), driven_cols)
    return [array._precharge_class_from_v_end(v) for v in v_ends]


def _race_class(array: TCAMArray, n_miss: int, driven_cols: int) -> _RaceClassResult:
    """Sensing result of one current-race mismatch class."""
    i_total = composite_current(
        array.race_amp.v_trip,
        array.cell.i_pulldown,
        array.cell.i_leak,
        int(n_miss),
        driven_cols - int(n_miss),
    )
    return array._race_class_from_current(i_total)


# ---------------------------------------------------------------------------
# Exact-match search
# ---------------------------------------------------------------------------


def _search_key(
    array: TCAMArray,
    ledger: EnergyLedger,
    miss: np.ndarray,
    driven_cols: int,
    active: np.ndarray,
) -> SearchOutcome:
    """Reference body of one healthy search, after the SL booking.

    Rows group by mismatch count (one ``np.unique`` covers both the
    sensing classes over the active rows and the histogram over the
    valid rows); the active classes are sensed once each, precharge
    ones by one stacked RK4 pass (elementwise identical to integrating
    each class alone), and book in ascending ``n_miss`` order.
    """
    unique, inverse = np.unique(miss, return_inverse=True)
    counts_active = np.bincount(inverse[active], minlength=unique.size)
    counts_valid = np.bincount(inverse[array._valid], minlength=unique.size)
    sensed = [(int(n), int(c)) for n, c in zip(unique, counts_active) if c]
    precharge = array.sensing == "precharge"
    if precharge:
        results = _precharge_classes(array, [n for n, _ in sensed], driven_cols)
    else:
        results = [_race_class(array, n, driven_cols) for n, _ in sensed]
    physical = np.zeros(array.geometry.rows, dtype=bool)
    t_sa_max = t_restore_max = 0.0
    for (n, n_rows), r in zip(sensed, results):
        physical[active & (miss == n)] = r.is_match
        if precharge:
            ledger.add(_PRE, float(n_rows) * r.e_restore)
            ledger.add(_DISS, float(n_rows) * r.e_diss)
            ledger.add(_SA, float(n_rows) * r.e_sense)
            t_sa_max = max(t_sa_max, r.t_sense)
            t_restore_max = max(t_restore_max, r.t_restore)
        else:
            ledger.add(_RACE, float(n_rows) * r.energy)
    t_sense, t_cycle = _sense_times(array, bool(sensed), t_sa_max, t_restore_max)
    logical = (miss == 0) & array._valid & active
    return _assemble_outcome(
        array, ledger, physical, t_sense, t_cycle, unique, counts_valid, logical
    )


def _sense_times(
    array: TCAMArray, any_sensed: bool, t_sa_max: float, t_restore_max: float
) -> tuple[float, float]:
    """``(t_sense, t_cycle)`` of one search's sensing phase."""
    if array.sensing == "precharge":
        if not any_sensed:
            return array.t_eval, array.t_eval
        t_sense = array.t_eval + t_sa_max
        return t_sense, t_sense + t_restore_max
    if not any_sensed:
        return array.race_amp.t_window, array.race_amp.t_window
    # Matched lines were charged to the trip point and reset to ground;
    # the reset (20 % of the window) burns stored charge but draws
    # nothing new.
    cutoff = array.race_amp.cutoff_time(array.c_ml)
    return cutoff, 1.2 * cutoff


def _assemble_outcome(
    array: TCAMArray,
    ledger: EnergyLedger,
    physical: np.ndarray,
    t_sense: float,
    t_cycle: float,
    unique: np.ndarray,
    counts_valid: np.ndarray,
    logical: np.ndarray,
) -> SearchOutcome:
    """Book the encoder and leakage and build one search's outcome.

    ``physical`` holds the sensed verdicts, ``unique`` / ``counts_valid``
    the valid rows per mismatch class (the histogram) and ``logical``
    the rows that truly match, the oracle of ``functional_errors``.
    """
    ledger.add(_ENC, array.estimator.encode_energy())
    effective = physical & array._valid
    cycle_time = array.sl_settle_delay + t_cycle
    ledger.add(_LEAK, array.estimator.leakage_power(array.vdd) * cycle_time)
    return SearchOutcome(
        match_mask=effective,
        first_match=array.encoder.encode(effective),
        energy=ledger,
        search_delay=array.sl_settle_delay + t_sense + array.encoder.delay,
        cycle_time=cycle_time,
        miss_histogram={int(n): int(c) for n, c in zip(unique, counts_valid) if c},
        functional_errors=int(np.count_nonzero(effective != logical)),
    )


# ---------------------------------------------------------------------------
# Fault-injected exact-match search
# ---------------------------------------------------------------------------

def _fault_memo(array: TCAMArray) -> dict:
    """The array's signature memo for its attached map's current version
    (a fresh one whenever the map or its version changed)."""
    fm = array.faults
    held = array._fault_oracle
    if held is None or held[0] is not fm or held[1] != fm.version:
        held = array._fault_oracle = (fm, fm.version, {})
    return held[2]


def _fault_precharge_results(
    array: TCAMArray, sigs: set[tuple]
) -> dict[tuple, _PrechargeClassResult]:
    """Sensing results of the retention-degraded fault classes.

    One signature ``(n_strong, weak_offsets, n_leak)`` covers every row
    sharing that pull-down composition; all missing signatures integrate
    in one stacked pass (:meth:`TCAMArray._fault_sig_classes`) and are
    memoised here per array -- independent of the kernel's
    :meth:`~repro.kernels.KernelEngine.fault_classes`, so the reference
    never reads kernel state.
    """
    memo = _fault_memo(array)
    missing = [sig for sig in sigs if sig not in memo]
    if missing:
        memo.update(zip(missing, array._fault_sig_classes(missing)))
    return {sig: memo[sig] for sig in sigs}


def _fault_row_composition(
    array: TCAMArray, key_arr: np.ndarray, driven: np.ndarray, eff_stored: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell pull-down / weakened-pull-down masks under faults.

    A cell pulls its match line down when it (a) mismatches on the
    hardware's effective content and its pull-down path is intact (not
    ``STUCK_MATCH``), or (b) is ``STUCK_MISS`` and its column is driven.
    ``RETENTION`` pull-downs conduct through a shifted threshold (the
    ``weak`` mask).
    """
    kind = array.faults.kind
    mism = driven & (eff_stored != int(Trit.X)) & (eff_stored != key_arr)
    pulldown = (mism & (kind != int(FaultKind.STUCK_MATCH))) | (
        (kind == int(FaultKind.STUCK_MISS)) & driven
    )
    return pulldown, pulldown & (kind == int(FaultKind.RETENTION))


def _search_impl_faulty(array: TCAMArray, key_arr: np.ndarray, active: np.ndarray) -> SearchOutcome:
    """One search of the validated trit codes ``key_arr`` with the
    attached (non-empty) fault map injected.

    Healthy-composition rows reuse the nominal per-class machinery (a
    row with ``n`` intact pull-downs is electrically a nominal
    ``n``-mismatch row); retention-degraded rows integrate their own
    composite-current classes; per-row SA offsets shift the strobe; dead
    rows drop out of sensing entirely (no precharge, no energy, no
    match).  Energies book row by row.  The logical oracle for
    ``functional_errors`` is the *intended* content -- so every
    divergence a fault causes is counted, including writes a
    ``STUCK_TRIT`` cell swallowed.
    """
    fm = array.faults
    driven = key_arr != int(Trit.X)
    driven_cols = int(np.count_nonzero(driven))
    eff_stored = fm.effective_stored(array._stored)
    pulldown, weak = _fault_row_composition(array, key_arr, driven, eff_stored)
    n_pull = pulldown.sum(axis=1)
    n_weak = weak.sum(axis=1)
    sensed = np.flatnonzero(active & ~fm.dead_rows).tolist()

    ledger = EnergyLedger()
    _book_searchline_energy(array, ledger, key_arr)
    physical = np.zeros(array.geometry.rows, dtype=bool)
    t_sa_max = t_restore_max = 0.0
    if array.sensing == "precharge":
        # Fault-class signature of every retention-degraded sensed row.
        weak_sigs = {
            r: (
                int(n_pull[r] - n_weak[r]),
                tuple(sorted(float(v) for v in fm.value[r][weak[r]])),
                int(driven_cols - n_pull[r]),
            )
            for r in sensed
            if n_weak[r]
        }
        # Nominal classes integrate in one stacked pass (elementwise
        # identical to integrating each alone).
        nominal = sorted({int(n_pull[r]) for r in sensed if r not in weak_sigs})
        class_results = dict(zip(nominal, _precharge_classes(array, nominal, driven_cols)))
        sig_results = _fault_precharge_results(array, set(weak_sigs.values()))
        for r in sensed:
            res = sig_results[weak_sigs[r]] if r in weak_sigs else class_results[int(n_pull[r])]
            offset = float(fm.sa_offset[r])
            if offset == 0.0:
                physical[r], t_sa, e_sense = res.is_match, res.t_sense, res.e_sense
            else:
                decision = array.estimator.sense(res.v_end, offset)
                physical[r], t_sa, e_sense = decision.is_match, decision.delay, decision.energy
            ledger.add(_PRE, res.e_restore)
            ledger.add(_DISS, res.e_diss)
            ledger.add(_SA, e_sense)
            t_sa_max = max(t_sa_max, t_sa)
            t_restore_max = max(t_restore_max, res.t_restore)
    elif sensed:
        v_trip = array.race_amp.v_trip
        i_pd0 = array.cell.i_pulldown(v_trip)
        i_lk0 = array.cell.i_leak(v_trip)
        for r in sensed:
            n_strong = int(n_pull[r] - n_weak[r])
            i_total = n_strong * i_pd0 + (driven_cols - int(n_pull[r])) * i_lk0
            for dvt in fm.value[r][weak[r]]:
                i_total += array.cell.i_pulldown(v_trip, float(dvt))
            decision = array.estimator.race(i_total, float(fm.sa_offset[r]))
            physical[r] = decision.is_match
            ledger.add(_RACE, decision.energy)
    t_sense, t_cycle = _sense_times(array, bool(sensed), t_sa_max, t_restore_max)

    # Histogram over the hardware's effective content; the error oracle
    # over the intended content and the caller's full mask (a matching
    # word on a dead row is a functional error).
    unique, inverse = np.unique(mismatch_counts(eff_stored, key_arr), return_inverse=True)
    counts_valid = np.bincount(inverse[array._valid], minlength=unique.size)
    logical = (mismatch_counts(array._stored, key_arr) == 0) & array._valid & active
    outcome = _assemble_outcome(
        array, ledger, physical, t_sense, t_cycle, unique, counts_valid, logical
    )
    m = obs.metrics()
    if m is not None:
        m.counter("faults.searches").inc()
        m.counter("faults.functional_errors").inc(outcome.functional_errors)
    return outcome


# ---------------------------------------------------------------------------
# Distance searches (associative-memory mode)
# ---------------------------------------------------------------------------


def _distance_key_state(
    array: TCAMArray, key, api: str
) -> tuple[np.ndarray, int, int, float, float, np.ndarray]:
    """Inputs of the per-key distance bodies for one call.

    The key's mismatch vector, driven-column count and search-line
    toggles (advancing the drive state), plus the toggle energy,
    precharge target and valid rows -- the argument prefix of
    :func:`_nearest_key`, :func:`_threshold_key` and :func:`_topk_key`.
    """
    key_arr = trit_block([key], array.geometry.cols, api)[0]
    return (
        mismatch_counts(array._stored, key_arr),
        int(np.count_nonzero(key_arr != int(Trit.X))),
        _key_toggles(array, key_arr),
        array.estimator.sl_toggle_energy(),
        array.precharge.target_voltage(),
        np.flatnonzero(array._valid),
    )


def _nearest_window(array: TCAMArray, runner_up: int, driven_cols: int, v_pre: float) -> float:
    """Time for a ``runner_up``-mismatch line to cross the reference
    (``t_eval`` when it never does)."""
    load = MatchLineLoad(
        capacitance=array.c_ml,
        n_miss=runner_up,
        n_match=max(driven_cols - runner_up, 0),
        i_pulldown=array.cell.i_pulldown,
        i_leak=array.cell.i_leak,
    )
    t_window = MatchLine(load, v_pre, array.vdd).time_to(array.sense_amp.v_ref)
    if not np.isfinite(t_window):
        t_window = array.t_eval
    return t_window


def _strobe_window(array: TCAMArray, cut: int, driven_cols: int, v_pre: float) -> float:
    """Evaluation window that lets the ``cut``-mismatch class cross."""
    if 0 < cut <= driven_cols:
        return _nearest_window(array, cut, driven_cols, v_pre)
    return array.t_eval


def _nearest_key(
    array: TCAMArray,
    miss: np.ndarray,
    driven_cols: int,
    n_toggles: int,
    e_toggle: float,
    v_pre: float,
    valid_idx: np.ndarray,
) -> NearestMatchOutcome:
    """Reference per-key best-match body."""
    est = array.estimator
    ledger = EnergyLedger()
    ledger.add(_SL, n_toggles * e_toggle)
    if valid_idx.size == 0:
        return NearestMatchOutcome(None, 0, ledger, array.sl_settle_delay)
    best_pos = int(valid_idx[np.argmin(miss[valid_idx])])
    best_distance = int(miss[best_pos])
    t_window = _strobe_window(array, best_distance + 1, driven_cols, v_pre)

    n_losers = int(np.count_nonzero(miss[valid_idx] > best_distance))
    n_winners = int(valid_idx.size - n_losers)
    ledger.add(_PRE, est.ml_precharge_energy(0.0, n_losers))
    ledger.add(_DISS, est.ml_dissipation_energy(0.0, n_losers))
    if best_distance == 0:
        v_winner = array._ml_voltages_after_eval([0], driven_cols)[0]
    else:
        v_winner = 0.0
        ledger.add(_DISS, est.ml_dissipation_energy(0.0, n_winners))
    ledger.add(_PRE, est.ml_precharge_energy(v_winner, n_winners))
    ledger.add(_SA, est.sense_idle_energy(valid_idx.size))
    ledger.add(_ENC, est.encode_energy())
    delay = array.sl_settle_delay + t_window + array.encoder.delay
    ledger.add(_LEAK, array.standby_power() * delay)
    return NearestMatchOutcome(best_pos, best_distance, ledger, delay)


def _book_accepted(
    array: TCAMArray,
    ledger: EnergyLedger,
    miss_v: np.ndarray,
    accepted: np.ndarray,
    t_window: float,
    driven_cols: int,
    n_enc: int,
) -> float:
    """Book a tolerance or top-k verdict over the valid rows; its delay.

    Rejected rows fully discharge.  Accepted rows droop to their class
    endpoints; each accepted class books restore and dissipation,
    accumulated in ascending ``n_miss`` order into one add per component
    (= the kernel's segmented sums, bit for bit).  The priority encoder
    drains ``n_enc`` winners.  The kernel twin, shared by the tolerance
    and top-k batches, is
    :meth:`~repro.tcam.array.TCAMArray._accepted_kernel_tail`.
    """
    est = array.estimator
    n_losers = int(miss_v.size - np.count_nonzero(accepted))
    ledger.add(_PRE, est.ml_precharge_energy(0.0, n_losers))
    ledger.add(_DISS, est.ml_dissipation_energy(0.0, n_losers))
    e_pre = 0.0
    e_diss = 0.0
    classes, counts = np.unique(miss_v[accepted], return_counts=True)
    for c, r in zip(counts, _precharge_classes(array, classes, driven_cols)):
        e_pre += float(c) * r.e_restore
        e_diss += float(c) * r.e_diss
    ledger.add(_PRE, e_pre)
    ledger.add(_DISS, e_diss)
    ledger.add(_SA, est.sense_idle_energy(miss_v.size))
    ledger.add(_ENC, float(n_enc) * est.encode_energy())
    delay = array.sl_settle_delay + t_window + float(n_enc) * array.encoder.delay
    ledger.add(_LEAK, array.standby_power() * delay)
    return delay


def _threshold_key(
    array: TCAMArray,
    miss: np.ndarray,
    driven_cols: int,
    n_toggles: int,
    e_toggle: float,
    v_pre: float,
    valid_idx: np.ndarray,
    max_distance: int,
) -> ThresholdMatchOutcome:
    """Reference per-key tolerance-search body."""
    ledger = EnergyLedger()
    ledger.add(_SL, n_toggles * e_toggle)
    mask = np.zeros(array.geometry.rows, dtype=bool)
    if valid_idx.size == 0:
        return ThresholdMatchOutcome(mask, None, 0, max_distance, ledger, array.sl_settle_delay)
    miss_v = miss[valid_idx]
    within = miss_v <= max_distance
    mask[valid_idx[within]] = True
    # Strobe window: the first excluded class must cross the reference.
    t_window = _strobe_window(array, max_distance + 1, driven_cols, v_pre)
    delay = _book_accepted(array, ledger, miss_v, within, t_window, driven_cols, 1)
    return ThresholdMatchOutcome(
        match_mask=mask,
        first_match=array.encoder.encode(mask),
        n_matches=int(np.count_nonzero(within)),
        max_distance=max_distance,
        energy=ledger,
        search_delay=delay,
    )


def _topk_key(
    array: TCAMArray,
    miss: np.ndarray,
    driven_cols: int,
    n_toggles: int,
    e_toggle: float,
    v_pre: float,
    valid_idx: np.ndarray,
    k: int,
) -> TopKMatchOutcome:
    """Reference per-key top-k body."""
    ledger = EnergyLedger()
    ledger.add(_SL, n_toggles * e_toggle)
    if valid_idx.size == 0:
        return TopKMatchOutcome((), (), k, ledger, array.sl_settle_delay)
    miss_v = miss[valid_idx]
    n_take = min(k, int(valid_idx.size))
    order = np.argsort(miss_v, kind="stable")[:n_take]
    sel_dist = miss_v[order]
    d_k = int(sel_dist[-1])
    # Strobe window: the class one past the k-th winner must cross; every
    # class up to the k-th winner's survives.
    t_window = _strobe_window(array, d_k + 1, driven_cols, v_pre)
    delay = _book_accepted(array, ledger, miss_v, miss_v <= d_k, t_window, driven_cols, n_take)
    return TopKMatchOutcome(
        rows=tuple(int(r) for r in valid_idx[order]),
        distances=tuple(int(d) for d in sel_dist),
        k=k,
        energy=ledger,
        search_delay=delay,
    )
