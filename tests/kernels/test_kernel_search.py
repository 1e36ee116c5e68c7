"""Kernel search path: bit-identity with the per-key reference loop.

The compiled kernel behind ``search_batch`` must never change a single
bit of any outcome: match masks, first match, delays, histograms, and
every per-component ledger float must equal a sequential loop over
``repro.tcam.reference.search`` -- across designs, row masks, rewrites
and fault maps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import all_designs, build_array, get_design
from repro.faults.faultmap import FaultKind, FaultMap
from repro.kernels import KernelEngine
from repro.tcam import ArrayGeometry, reference
from repro.tcam.trit import random_word

SEARCHABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]


def _loaded_pair(design_name, rows=16, cols=24, seed=7, x_fraction=0.2):
    """Two identically-written arrays: scalar reference, kernel batch."""
    spec = get_design(design_name)
    geo = ArrayGeometry(rows=rows, cols=cols)
    arrays = [build_array(spec, geo) for _ in range(2)]
    rng = np.random.default_rng(seed)
    words = [random_word(cols, rng, x_fraction) for _ in range(rows)]
    for i, w in enumerate(words):
        for a in arrays:
            a.write(i, w)
    return arrays


def _keys(cols, n, seed, x_fraction=0.15):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction) for _ in range(n)]


def _assert_outcomes_identical(reference, kernel):
    assert len(reference) == len(kernel)
    for s, b in zip(reference, kernel):
        assert np.array_equal(s.match_mask, b.match_mask)
        assert s.first_match == b.first_match
        assert s.search_delay == b.search_delay
        assert s.cycle_time == b.cycle_time
        assert s.miss_histogram == b.miss_histogram
        assert s.functional_errors == b.functional_errors
        s_breakdown = s.energy.breakdown()
        b_breakdown = b.energy.breakdown()
        assert set(s_breakdown) == set(b_breakdown)
        for component, value in s_breakdown.items():
            # Exact float equality: the kernel must book the very same
            # numbers, not merely close ones.
            assert b_breakdown[component] == value, component
        assert s.energy.total == b.energy.total
        # Booking order and the sorted breakdown's item order, too.
        assert list(s.energy) == list(b.energy)
        assert list(s_breakdown.items()) == list(b_breakdown.items())


class TestKernelEquivalence:
    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_bit_identical_to_scalar(self, design):
        scalar, kernel = _loaded_pair(design)
        keys = _keys(24, 24, seed=11)
        _assert_outcomes_identical(
            [reference.search(scalar, k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > 0

    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_row_mask(self, design):
        scalar, kernel = _loaded_pair(design)
        mask = np.zeros(16, dtype=bool)
        mask[::3] = True
        keys = _keys(24, 12, seed=13)
        _assert_outcomes_identical(
            [reference.search(scalar, k, row_mask=mask) for k in keys],
            kernel.search_batch(keys, row_mask=mask),
        )

    def test_all_x_keys_and_repeats(self):
        """driven == 0 classes and back-to-back repeated keys."""
        scalar, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 6, seed=29)
        keys = [keys[0], keys[0]] + keys[1:] + _keys(24, 2, seed=31, x_fraction=1.0)
        _assert_outcomes_identical(
            [reference.search(scalar, k) for k in keys], kernel.search_batch(keys)
        )

    def test_rewrite_rebuilds_snapshot(self):
        """A write between batches must be visible to the kernel path."""
        scalar, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 8, seed=17)
        _assert_outcomes_identical(
            [reference.search(scalar, k) for k in keys], kernel.search_batch(keys)
        )
        rng = np.random.default_rng(19)
        new_word = random_word(24, rng, x_fraction=0.1)
        scalar.write(5, new_word)
        kernel.write(5, new_word)
        scalar.invalidate(2)
        kernel.invalidate(2)
        _assert_outcomes_identical(
            [reference.search(scalar, k) for k in keys], kernel.search_batch(keys)
        )

    def test_kernel_built_on_first_use(self):
        _, kernel = _loaded_pair("fefet2t")
        assert kernel._kernel is None
        engine = kernel.kernel
        assert isinstance(engine, KernelEngine)
        assert kernel.kernel is engine
        kernel.search_batch(_keys(24, 4, seed=23))
        assert kernel.kernel is engine


_BOOKING = {
    "precharge": ["sl", "ml_precharge", "ml_dissipation", "sa", "priority_encoder", "leakage"],
    "current_race": ["sl", "race_source", "priority_encoder", "leakage"],
}


class TestLedgerOrder:
    @pytest.mark.parametrize("design", ["fefet2t", "fefet_cr"])
    @pytest.mark.parametrize("mask", ["none", "partial", "all_false"])
    def test_booking_order_matches_scalar(self, design, mask):
        """Pre-booked kernel ledgers list their components in the
        reference's booking order, for both sensing styles, including
        the no-row-sensed branch."""
        scalar, kernel = _loaded_pair(design)
        row_mask = {
            "none": None,
            "partial": np.arange(16) % 3 == 0,
            "all_false": np.zeros(16, dtype=bool),
        }[mask]
        keys = _keys(24, 16, seed=43, x_fraction=0.3)
        got = kernel.search_batch(keys, row_mask=row_mask)
        ref = [reference.search(scalar, k, row_mask=row_mask) for k in keys]
        _assert_outcomes_identical(ref, got)
        expected = (
            ["sl", "priority_encoder", "leakage"]
            if mask == "all_false"
            else _BOOKING[kernel.sensing]
        )
        for outcome in got:
            assert list(outcome.energy.components()) == expected


class TestKernelWithFaults:
    def test_empty_fault_map_keeps_kernel_path(self):
        scalar, kernel = _loaded_pair("fefet2t")
        for a in (scalar, kernel):
            a.attach_faults(FaultMap(16, 24))
        keys = _keys(24, 10, seed=41)
        _assert_outcomes_identical(
            [reference.search(scalar, k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > 0

    def test_sa_offset_stays_on_kernel(self):
        """Per-row offsets re-strobe only their rows; outcomes must still
        match the scalar fault-aware loop exactly."""
        scalar, kernel = _loaded_pair("fefet2t")
        for a in (scalar, kernel):
            fm = FaultMap(16, 24)
            fm.set_sa_offset(4, 0.03)
            a.attach_faults(fm)
        keys = _keys(24, 10, seed=43)
        hits = kernel.kernel.table_hits
        _assert_outcomes_identical(
            [reference.search(scalar, k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > hits

    def test_cell_faults_stay_on_kernel(self):
        scalar, kernel = _loaded_pair("fefet2t")
        for a in (scalar, kernel):
            fm = FaultMap(16, 24)
            fm.set_cell(3, 7, FaultKind.STUCK_MISS)
            fm.set_dead_row(9)
            a.attach_faults(fm)
        keys = _keys(24, 10, seed=47)
        hits = kernel.kernel.table_hits
        _assert_outcomes_identical(
            [reference.search(scalar, k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > hits


class TestKernelMetrics:
    def test_counters_reach_registry(self):
        _, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 16, seed=53, x_fraction=0.3)
        with obs.observe() as session:
            kernel.search_batch(keys)
            snapshot = session.metrics.snapshot()
        assert snapshot["kernels.table_hits"] == kernel.kernel.table_hits
        assert snapshot["kernels.rows_built"] == kernel.kernel.rows_built
        assert snapshot["kernels.table_hits"] > 0
        assert "kernels.rk4_fallbacks" not in snapshot

    def test_counters_are_deltas_per_batch(self):
        """A second observed batch books only its own increments."""
        _, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 8, seed=59)
        kernel.search_batch(keys)  # accrue un-observed counts first
        before = kernel.kernel.table_hits
        with obs.observe() as session:
            kernel.search_batch(keys)
            snapshot = session.metrics.snapshot()
        assert snapshot["kernels.table_hits"] == kernel.kernel.table_hits - before
        assert snapshot["kernels.table_hits"] > 0
