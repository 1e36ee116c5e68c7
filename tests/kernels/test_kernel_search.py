"""Kernel search path: bit-identity with the legacy engine and scalar loop.

The compiled kernel (`enable_kernel()`) must never change a single bit of
any outcome: match masks, first match, delays, histograms, and every
per-component ledger float must equal both the legacy batch engine and
the sequential scalar loop -- across designs, row masks, rewrites, fault
maps, and the RK4 fallback mix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import all_designs, build_array, get_design
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry
from repro.tcam.trit import random_word

SEARCHABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]


def _loaded_trio(design_name, rows=16, cols=24, seed=7, x_fraction=0.2):
    """Three identically-written arrays: scalar, legacy batch, kernel."""
    spec = get_design(design_name)
    geo = ArrayGeometry(rows=rows, cols=cols)
    arrays = [build_array(spec, geo) for _ in range(3)]
    rng = np.random.default_rng(seed)
    words = [random_word(cols, rng, x_fraction) for _ in range(rows)]
    for i, w in enumerate(words):
        for a in arrays:
            a.write(i, w)
    arrays[2].enable_kernel()
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


class TestKernelEquivalence:
    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_bit_identical_to_scalar_and_legacy(self, design):
        scalar, legacy, kernel = _loaded_trio(design)
        keys = _keys(24, 24, seed=11)
        ref_scalar = [scalar.search(k) for k in keys]
        ref_legacy = legacy.search_batch(keys)
        got = kernel.search_batch(keys)
        _assert_outcomes_identical(ref_scalar, got)
        _assert_outcomes_identical(ref_legacy, got)
        assert kernel.kernel.table_hits > 0
        assert kernel.kernel.rk4_fallbacks == 0

    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_row_mask(self, design):
        _, legacy, kernel = _loaded_trio(design)
        mask = np.zeros(16, dtype=bool)
        mask[::3] = True
        keys = _keys(24, 12, seed=13)
        _assert_outcomes_identical(
            legacy.search_batch(keys, row_mask=mask),
            kernel.search_batch(keys, row_mask=mask),
        )

    def test_all_x_keys_and_repeats(self):
        """driven == 0 classes and back-to-back repeated keys."""
        _, legacy, kernel = _loaded_trio("fefet2t")
        keys = _keys(24, 6, seed=29)
        keys = [keys[0], keys[0]] + keys[1:] + _keys(24, 2, seed=31, x_fraction=1.0)
        _assert_outcomes_identical(legacy.search_batch(keys), kernel.search_batch(keys))

    def test_rewrite_rebuilds_snapshot(self):
        """A write between batches must be visible to the kernel path."""
        _, legacy, kernel = _loaded_trio("fefet2t")
        keys = _keys(24, 8, seed=17)
        _assert_outcomes_identical(legacy.search_batch(keys), kernel.search_batch(keys))
        rng = np.random.default_rng(19)
        new_word = random_word(24, rng, x_fraction=0.1)
        legacy.write(5, new_word)
        kernel.write(5, new_word)
        legacy.invalidate(2)
        kernel.invalidate(2)
        _assert_outcomes_identical(legacy.search_batch(keys), kernel.search_batch(keys))

    def test_disable_kernel_restores_legacy(self):
        _, legacy, kernel = _loaded_trio("fefet2t")
        keys = _keys(24, 8, seed=23)
        kernel.disable_kernel()
        assert kernel.kernel is None
        _assert_outcomes_identical(legacy.search_batch(keys), kernel.search_batch(keys))


class TestKernelFallback:
    def test_max_driven_mix_is_bit_identical(self):
        """In-grid keys use the tables, the rest the RK4 reference path."""
        scalar, legacy, kernel = _loaded_trio("fefet2t")
        keys = _keys(24, 24, seed=37, x_fraction=0.3)
        drivens = [int(np.count_nonzero(k.as_array() != 2)) for k in keys]
        kernel.disable_kernel()
        engine = kernel.enable_kernel(max_driven=int(np.median(drivens)))
        got = kernel.search_batch(keys)
        _assert_outcomes_identical([scalar.search(k) for k in keys], got)
        _assert_outcomes_identical(legacy.search_batch(keys), got)
        assert engine.table_hits > 0
        assert engine.rk4_fallbacks > 0


class TestKernelWithFaults:
    def test_empty_fault_map_keeps_kernel_path(self):
        _, legacy, kernel = _loaded_trio("fefet2t")
        for a in (legacy, kernel):
            a.attach_faults(FaultMap(16, 24))
        keys = _keys(24, 10, seed=41)
        _assert_outcomes_identical(legacy.search_batch(keys), kernel.search_batch(keys))
        assert kernel.kernel.table_hits > 0

    def test_sa_offset_stays_on_kernel(self):
        """Per-row offsets re-strobe only their rows; outcomes must still
        match the scalar fault-aware loop exactly."""
        scalar, _, kernel = _loaded_trio("fefet2t")
        for a in (scalar, kernel):
            fm = FaultMap(16, 24)
            fm.set_sa_offset(4, 0.03)
            a.attach_faults(fm)
        keys = _keys(24, 10, seed=43)
        hits, fallbacks = kernel.kernel.table_hits, kernel.kernel.rk4_fallbacks
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > hits
        assert kernel.kernel.rk4_fallbacks == fallbacks

    def test_cell_faults_stay_on_kernel(self):
        scalar, _, kernel = _loaded_trio("fefet2t")
        for a in (scalar, kernel):
            fm = FaultMap(16, 24)
            fm.set_cell(3, 7, FaultKind.STUCK_MISS)
            fm.set_dead_row(9)
            a.attach_faults(fm)
        keys = _keys(24, 10, seed=47)
        hits, fallbacks = kernel.kernel.table_hits, kernel.kernel.rk4_fallbacks
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > hits
        assert kernel.kernel.rk4_fallbacks == fallbacks


class TestKernelMetrics:
    def test_counters_reach_registry(self):
        _, _, kernel = _loaded_trio("fefet2t")
        keys = _keys(24, 16, seed=53, x_fraction=0.3)
        drivens = [int(np.count_nonzero(k.as_array() != 2)) for k in keys]
        kernel.disable_kernel()
        kernel.enable_kernel(max_driven=int(np.median(drivens)))
        with obs.observe() as session:
            kernel.search_batch(keys)
            snapshot = session.metrics.snapshot()
        assert snapshot["kernels.table_hits"] == kernel.kernel.table_hits
        assert snapshot["kernels.rk4_fallbacks"] == kernel.kernel.rk4_fallbacks
        assert snapshot["kernels.table_hits"] > 0
        assert snapshot["kernels.rk4_fallbacks"] > 0

    def test_counters_are_deltas_per_batch(self):
        """A second observed batch books only its own increments."""
        _, _, kernel = _loaded_trio("fefet2t")
        keys = _keys(24, 8, seed=59)
        kernel.search_batch(keys)  # accrue un-observed counts first
        before = kernel.kernel.table_hits
        with obs.observe() as session:
            kernel.search_batch(keys)
            snapshot = session.metrics.snapshot()
        assert snapshot["kernels.table_hits"] == kernel.kernel.table_hits - before
        assert snapshot["kernels.table_hits"] > 0
