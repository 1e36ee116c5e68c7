"""Fault-aware kernel search: bit-identity with the per-key faulty reference.

With a non-empty fault map attached, ``search_batch`` runs the
fault-aware kernel path.  It must return exactly what the per-key
reference (``repro.tcam.reference.search``, which runs the faulty body)
returns key by key: every ``SearchOutcome`` field, every ledger item in
booking order, the ``faults.*`` metric totals, and the search-line drive
state left behind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import build_array, get_design
from repro.energy.accounting import EnergyLedger
from repro.errors import TCAMError
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry, HierarchicalBank, SegmentedBank, TCAMChip, reference
from repro.tcam.trit import TernaryWord, random_word

DESIGNS = ("fefet2t", "fefet_cr")  # one precharge, one current-race design


def _assert_same(ref, got):
    """Every outcome field equal, ledger items equal in booking order."""
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert np.array_equal(r.match_mask, g.match_mask)
        assert r.first_match == g.first_match
        assert r.search_delay == g.search_delay
        assert r.cycle_time == g.cycle_time
        assert r.miss_histogram == g.miss_histogram
        assert r.functional_errors == g.functional_errors
        assert list(r.energy) == list(g.energy)
        assert r.energy.total == g.energy.total


def _random_fault_map(rng, rows, cols, n_cells, n_dead, n_offset):
    """A map carrying all four cell kinds plus dead rows and SA offsets."""
    fm = FaultMap(rows, cols)
    kinds = [FaultKind.STUCK_MATCH, FaultKind.STUCK_MISS, FaultKind.STUCK_TRIT,
             FaultKind.RETENTION]
    kinds += [FaultKind(int(k)) for k in rng.integers(1, 5, size=n_cells)]
    for kind in kinds:
        r, c = int(rng.integers(rows)), int(rng.integers(cols))
        if kind is FaultKind.RETENTION:
            # A few repeated shifts so rows share signatures across keys.
            value = float(rng.choice([0.05, 0.15, 0.3, float(rng.uniform(0.0, 0.5))]))
        else:
            value = float(rng.integers(3))
        fm.set_cell(r, c, kind, value)
    for r in rng.choice(rows, size=n_dead, replace=False):
        fm.set_dead_row(int(r))
    for r in rng.choice(rows, size=n_offset, replace=False):
        fm.set_sa_offset(int(r), float(rng.choice([-0.3, -0.05, 0.02, 0.1, 0.4])))
    return fm


def _twins(design, rows, cols, rng, x_fraction, n_words=None):
    """A scalar reference array and a batch (kernel) array, same content."""
    geo = ArrayGeometry(rows=rows, cols=cols)
    ref, ker = build_array(get_design(design), geo), build_array(get_design(design), geo)
    n_words = rows if n_words is None else n_words
    for i in range(n_words):
        word = random_word(cols, rng, x_fraction)
        ref.write(i, word)
        ker.write(i, word)
    return ref, ker


@st.composite
def scenarios(draw):
    rows = draw(st.integers(2, 20))
    cols = draw(st.integers(2, 16))
    return {
        "design": draw(st.sampled_from(DESIGNS)),
        "rows": rows,
        "cols": cols,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "x_fraction": draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])),
        "key_x": draw(st.sampled_from([0.0, 0.15, 0.5, 1.0])),
        "n_words": draw(st.integers(0, rows)),
        "n_cells": draw(st.integers(0, rows * cols // 3)),
        "n_dead": draw(st.integers(0, rows // 3)),
        "n_offset": draw(st.integers(0, rows // 2)),
        "mask": draw(st.sampled_from(["none", "random", "all_false", "all_true"])),
        "n_keys": draw(st.integers(1, 12)),
    }


def _mask(kind, rows, rng):
    if kind == "none":
        return None
    if kind == "random":
        return rng.random(rows) < 0.5
    return np.full(rows, kind == "all_true")


def _faults_metrics(snapshot):
    return (
        snapshot.get("faults.searches", 0.0),
        snapshot.get("faults.functional_errors", 0.0),
    )


class TestFaultKernelEquivalence:
    @given(sc=scenarios())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_equals_per_key_scalar(self, sc):
        rng = np.random.default_rng(sc["seed"])
        rows, cols = sc["rows"], sc["cols"]
        ref, ker = _twins(sc["design"], rows, cols, rng, sc["x_fraction"], sc["n_words"])
        fm = _random_fault_map(rng, rows, cols, sc["n_cells"], sc["n_dead"], sc["n_offset"])
        ref.attach_faults(fm.copy())
        ker.attach_faults(fm)
        keys = [random_word(cols, rng, sc["key_x"]) for _ in range(sc["n_keys"])]
        mask = _mask(sc["mask"], rows, rng)

        with obs.observe() as s_ref:
            expected = [reference.search(ref, k, row_mask=mask) for k in keys]
            ref_metrics = _faults_metrics(s_ref.metrics.snapshot())
        with obs.observe() as s_ker:
            got = ker.search_batch(keys, row_mask=mask)
            ker_metrics = _faults_metrics(s_ker.metrics.snapshot())

        _assert_same(expected, got)
        assert ker_metrics == ref_metrics == (
            float(len(keys)),
            float(sum(o.functional_errors for o in expected)),
        )
        assert ref._last_drive == ker._last_drive

    @pytest.mark.parametrize("design", DESIGNS)
    def test_weak_current_summation_order(self, design):
        """Rows whose only pull-downs are several weak cells, shifted just
        enough to discharge part way: the summation order of the weak
        currents (sorted for precharge, column order for current race)
        must be the reference's, or the endpoints move by an ulp."""
        rng = np.random.default_rng(19)
        rows, cols = 16, 24
        ref, ker = _twins(design, rows, cols, rng, 0.0)
        fm = FaultMap(rows, cols)
        keys = []
        for r in range(rows):
            key = ref.word_at(r).as_array().copy()
            for c in rng.choice(cols, size=2 + r % 4, replace=False):
                fm.set_cell(r, int(c), FaultKind.RETENTION, float(rng.uniform(0.2, 0.45)))
                key[c] = 1 - key[c]
            keys.append(TernaryWord(key))
        fm.set_sa_offset(2, 0.05)
        ref.attach_faults(fm.copy())
        ker.attach_faults(fm)
        engine = ker.kernel
        _assert_same([reference.search(ref, k) for k in keys], ker.search_batch(keys))
        if design == "fefet2t":
            # An ulp of endpoint often rounds away in the energies, so also
            # check that every signature the kernel cached is one the
            # reference integrated (its memo keeps every signature it saw),
            # with the same result float for float.
            assert engine._fault_classes
            memo = reference._fault_memo(ref)
            for sig, result in engine._fault_classes.items():
                assert memo[sig] == result

    @pytest.mark.parametrize("design", DESIGNS)
    def test_mutation_between_batches_and_detach(self, design):
        rng = np.random.default_rng(3)
        ref, ker = _twins(design, 24, 16, rng, 0.2)
        fm_ref = _random_fault_map(rng, 24, 16, 30, 2, 3)
        fm_ker = fm_ref.copy()
        ref.attach_faults(fm_ref)
        ker.attach_faults(fm_ker)
        engine = ker.kernel
        keys = [random_word(16, rng, 0.15) for _ in range(20)]
        _assert_same([reference.search(ref, k) for k in keys], ker.search_batch(keys))

        # In-place mutation bumps the map version: the next batch must see it.
        for fm in (fm_ref, fm_ker):
            fm.set_cell(5, 5, FaultKind.RETENTION, 0.45)
            fm.set_cell(6, 2, FaultKind.STUCK_MISS)
            fm.set_dead_row(9)
            fm.set_sa_offset(8, 0.2)
        _assert_same([reference.search(ref, k) for k in keys], ker.search_batch(keys))
        assert ker._soa_state().faults.version == fm_ker.version

        # Detached, the batch is the nominal kernel again.
        ref.detach_faults()
        ker.detach_faults()
        hits = engine.table_hits
        _assert_same([reference.search(ref, k) for k in keys], ker.search_batch(keys))
        assert ker._soa_state().faults is None
        assert engine.table_hits > hits

    @pytest.mark.parametrize("design", DESIGNS)
    def test_span_sum_equals_ledger(self, design):
        rng = np.random.default_rng(7)
        _, ker = _twins(design, 20, 12, rng, 0.25)
        ker.attach_faults(_random_fault_map(rng, 20, 12, 20, 2, 3))
        keys = [random_word(12, rng, 0.2) for _ in range(10)]
        with obs.observe() as sess:
            outcomes = ker.search_batch(keys)
        (root,) = sess.spans
        assert root.name == "array.search_batch"
        merged = EnergyLedger.sum(o.energy for o in outcomes)
        assert root.total_energy().as_dict() == merged.as_dict()
        assert root.total_energy().total == merged.total


def _integrations(sess) -> int:
    """Stacked fault-signature passes traced in a session."""
    return sum(
        span.name == "array.integrate_faulty"
        for root in sess.spans
        for _, span in root.walk()
    )


class TestFaultSignatureCache:
    """Signature results are electrical: keyed by signature alone, they
    survive fault-map changes and are shared by adopting engines."""

    def _faulty_pair(self):
        rng = np.random.default_rng(23)
        ref, ker = _twins("fefet2t", 16, 12, rng, 0.1)
        fm = _random_fault_map(rng, 16, 12, 30, 1, 2)
        keys = [random_word(12, rng, 0.1) for _ in range(12)]
        return ref, ker, fm, keys

    def test_signatures_survive_a_fault_map_change(self):
        ref, ker, fm, keys = self._faulty_pair()
        ref.attach_faults(fm.copy())
        ker.attach_faults(fm)
        with obs.observe() as sess:
            got = ker.search_batch(keys)
        assert _integrations(sess) >= 1
        _assert_same([reference.search(ref, k) for k in keys], got)
        # A dead row moves the map's version but leaves every other
        # row's pull-down composition, hence every signature, unchanged.
        for held in (fm, ref.faults):
            held.set_dead_row(0)
        with obs.observe() as sess:
            got = ker.search_batch(keys)
        assert _integrations(sess) == 0
        _assert_same([reference.search(ref, k) for k in keys], got)

    def test_adopter_reuses_donor_signatures(self):
        _, donor, fm, keys = self._faulty_pair()
        ref, adopter, _, _ = self._faulty_pair()
        donor.attach_faults(fm)
        donor.search_batch(keys)
        adopter.kernel.adopt_tables(donor.kernel)
        # The adopter's own map is a changed copy of the donor's.
        moved = fm.copy()
        moved.set_dead_row(0)
        adopter.attach_faults(moved)
        ref.attach_faults(moved.copy())
        with obs.observe() as sess:
            got = adopter.search_batch(keys)
        assert _integrations(sess) == 0
        _assert_same([reference.search(ref, k) for k in keys], got)


def _bank_pair(factory, rows, cols, rng):
    ref, ker = factory(), factory()
    for i in range(rows):
        word = random_word(cols, rng, 0.2)
        ref.write(i, word)
        ker.write(i, word)
    fm = _random_fault_map(rng, rows, cols, 25, 1, 3)
    ref.attach_faults(fm.copy())
    ker.attach_faults(fm)
    return ref, ker


class TestFaultKernelComposites:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_segmented_and_hierarchical_banks(self, design, per_key_search):
        spec = get_design(design)
        geo = ArrayGeometry(rows=16, cols=16)
        rng = np.random.default_rng(11)
        factories = [
            lambda: SegmentedBank(spec.build_cell(), geo, 6, sensing=spec.sensing),
            lambda: HierarchicalBank(spec.build_cell(), geo, [4, 5, 7], sensing=spec.sensing),
        ]
        keys = [random_word(16, rng, 0.2) for _ in range(12)]
        for factory in factories:
            ref, ker = _bank_pair(factory, 16, 16, rng)
            with per_key_search():
                expected = [ref.search(k) for k in keys]
            got = ker.search_batch(keys)
            for r, g in zip(expected, got):
                assert r.first_match == g.first_match
                assert list(r.energy) == list(g.energy)
                assert r.search_delay == g.search_delay

    @pytest.mark.parametrize("design", DESIGNS)
    def test_chip(self, design, per_key_search):
        spec = get_design(design)
        geo = ArrayGeometry(rows=12, cols=14)
        rng = np.random.default_rng(13)

        def chip():
            return TCAMChip(lambda: build_array(spec, geo), n_banks=3)

        ref, ker = _bank_pair(chip, 36, 14, rng)
        keys = [random_word(14, rng, 0.2) for _ in range(18)]
        banks = [int(b) for b in rng.integers(3, size=len(keys))]
        with per_key_search():
            expected = [ref.search(k, bank=b) for k, b in zip(keys, banks)]
        got = ker.search_batch(keys, banks)
        for r, g in zip(expected, got):
            assert (r.bank, r.row, r.latency) == (g.bank, g.row, g.latency)
            assert list(r.energy) == list(g.energy)
        _assert_same([r.outcome for r in expected], [g.outcome for g in got])
        assert all(bank.kernel.table_hits > 0 for bank in ker.banks)


class TestMalformedFaultyBatch:
    def test_rejected_batch_leaves_state_untouched(self):
        rng = np.random.default_rng(17)
        _, arr = _twins("fefet2t", 10, 8, rng, 0.2)
        arr.attach_faults(_random_fault_map(rng, 10, 8, 10, 1, 2))
        arr.search_batch([random_word(8, rng, 0.1)])
        drive = arr._last_drive
        bad_batches = [
            ([random_word(8, rng, 0.1), random_word(8, rng, 0.1), TernaryWord([0] * 7)], None),
            ([TernaryWord([1] * 9)], None),
            ([random_word(8, rng, 0.1)], np.ones(11, dtype=bool)),
        ]
        for keys, mask in bad_batches:
            with obs.observe() as sess:
                with pytest.raises(TCAMError):
                    arr.search_batch(keys, row_mask=mask)
                assert not any(
                    name.startswith(("faults.", "tcam.", "kernels."))
                    for name in sess.metrics.snapshot()
                )
            assert arr._last_drive == drive
