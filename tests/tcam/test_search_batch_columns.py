"""Columnar ``search_batch`` results agree with their outcomes.

``TCAMArray.search_batch`` returns a :class:`SearchBatch`: columns of
the per-key results that, indexed or iterated, are the per-key scalar
``search`` outcomes.  Here the column reads (``first_rows``,
``energy_totals``, ``cycle_times``, ``energy_ledger``), the raw columns,
the materialised outcomes and the scalar reference must all agree, bit
for bit and in booking order, across precharge and current-race
sensing, healthy and faulty arrays, class tables compiled up front or
on demand, and an all-false row mask.  The serving engine reads the
columns, so its records must equal the per-key reference's too.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core import build_array, get_design
from repro.energy.accounting import EnergyLedger
from repro.faults.faultmap import FaultKind, FaultMap
from repro.serve import (
    ArrayBackend,
    ChipBackend,
    ServeEngine,
    ServiceModel,
    make_policy,
    poisson_trace,
    run_trace,
)
from repro.serve.backend import request_energy
from repro.tcam import ArrayGeometry, TCAMChip, reference
from repro.tcam.batch import SearchBatch
from repro.tcam.outcome import OutcomeList, as_batch
from repro.tcam.trit import random_word

ROWS, COLS = 12, 10
DESIGNS = ("fefet2t", "fefet_cr")  # precharge, current race


def _twins(design, seed=0):
    """A scalar reference array and a batch array with the same content."""
    rng = np.random.default_rng(seed)
    words = [random_word(COLS, rng, x_fraction=0.3) for _ in range(ROWS - 2)]
    pair = []
    for _ in range(2):
        array = build_array(get_design(design), ArrayGeometry(ROWS, COLS))
        array.load(words)  # the last two rows stay invalid
        pair.append(array)
    return pair


def _faults(rng):
    fm = FaultMap(ROWS, COLS)
    for kind, value in (
        (FaultKind.STUCK_MATCH, 0.0),
        (FaultKind.STUCK_MISS, 1.0),
        (FaultKind.RETENTION, 0.15),
        (FaultKind.RETENTION, 0.3),
    ):
        fm.set_cell(int(rng.integers(ROWS)), int(rng.integers(COLS)), kind, value)
    fm.set_dead_row(3)
    fm.set_sa_offset(5, 0.1)
    return fm


def _keys(n, seed, x_fraction=0.2):
    rng = np.random.default_rng(seed)
    return [random_word(COLS, rng, x_fraction) for _ in range(n)]


def _assert_agree(ref, batch):
    """Columns, column reads and materialised outcomes == the reference.

    The column reads go first, on a batch nothing has indexed yet.
    """
    assert isinstance(batch, SearchBatch)
    assert batch._outcomes is None
    assert batch.first_rows() == [o.first_match for o in ref]
    assert batch.energy_totals() == [o.energy.total for o in ref]
    model = ServiceModel()
    share = model.e_overhead / len(ref)
    assert batch.energy_totals(share) == [
        request_energy(o, model, len(ref)).total for o in ref
    ]
    assert batch.cycle_times() == [o.cycle_time for o in ref]
    merged = EnergyLedger.sum(o.energy for o in ref)
    assert list(batch.energy_ledger()) == list(merged)  # booking order too
    assert batch._outcomes is None  # no read above built an outcome

    assert np.array_equal(batch.match_mask, np.stack([o.match_mask for o in ref]))
    assert batch.first_match.tolist() == [
        -1 if o.first_match is None else o.first_match for o in ref
    ]
    assert batch.search_delay.tolist() == [o.search_delay for o in ref]
    assert batch.functional_errors.tolist() == [o.functional_errors for o in ref]
    for o, row in zip(ref, batch.energy.tolist()):
        assert batch.components == o.energy.components()
        assert row == [j for _, j in o.energy]

    assert len(batch) == len(ref)
    for r, g in zip(ref, batch):
        assert r.to_dict() == g.to_dict()
        assert list(r.energy) == list(g.energy)
    assert batch[-1] is list(batch)[-1]  # one cached materialisation
    assert [o.to_dict() for o in batch[1:3]] == [o.to_dict() for o in ref[1:3]]


class TestColumnsAgree:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faulty"])
    @pytest.mark.parametrize("grid", ["full", "reduced"])
    def test_columns_view_and_scalar(self, design, faulty, grid):
        ref, got = _twins(design)
        keys = _keys(16, seed=1)
        if faulty:
            fm = _faults(np.random.default_rng(2))
            ref.attach_faults(fm)
            got.attach_faults(fm)
        if grid == "full":
            # The whole class triangle compiled up front; a "reduced"
            # kernel compiles only the rows the batch needs.
            got.kernel.precompute()
        batch = got.search_batch(keys)
        _assert_agree([reference.search(ref, k) for k in keys], batch)
        assert (got.kernel.rows_built == COLS + 1) == (grid == "full")
        assert ref._last_drive == got._last_drive

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faulty"])
    def test_all_false_row_mask(self, design, faulty):
        ref, got = _twins(design)
        if faulty:
            fm = _faults(np.random.default_rng(3))
            ref.attach_faults(fm)
            got.attach_faults(fm)
        mask = np.zeros(ROWS, dtype=bool)
        keys = _keys(6, seed=4)
        _assert_agree([reference.search(ref, k, mask) for k in keys], got.search_batch(keys, mask))

    def test_span_energy_is_merged_ledger(self):
        """The batch span books the columns' merged ledger: exactly
        ``EnergyLedger.sum`` of the materialised ledgers, component
        order included, and tracing builds no outcome."""
        _, array = _twins("fefet2t")
        with obs.observe() as sess:
            batch = array.search_batch(_keys(20, seed=5))
        assert batch._outcomes is None
        (root,) = sess.spans
        merged = EnergyLedger.sum(o.energy for o in batch)
        assert list(root.total_energy()) == list(merged)

    def test_empty_batch_is_empty_list(self):
        _, array = _twins("fefet2t")
        assert array.search_batch([]) == []
        assert as_batch([]).first_rows() == []

    def test_lists_get_the_same_reads(self):
        ref, got = _twins("fefet_cr")
        keys = _keys(5, seed=6)
        listed = as_batch([reference.search(ref, k) for k in keys])
        batch = got.search_batch(keys)
        assert isinstance(listed, OutcomeList)
        assert as_batch(batch) is batch
        assert listed.first_rows() == batch.first_rows()
        assert listed.energy_totals(1e-12) == batch.energy_totals(1e-12)
        assert listed.cycle_times() == batch.cycle_times()
        assert list(listed.energy_ledger()) == list(batch.energy_ledger())


class TestCompensatedSum:
    """Totals are builtin ``sum`` over the booked values, never a numpy
    row sum: Python 3.12's ``sum`` compensates rounding, so only the
    same ``sum`` call over the same values equals ``EnergyLedger.total``
    there.  These energies make a compensated and a sequential sum
    differ for many keys."""

    def _batch(self, n=400, seed=7):
        rng = np.random.default_rng(seed)
        names = ("sl", "ml_precharge", "ml_dissipation", "sa", "priority_encoder", "leakage", "x")
        energy = rng.uniform(0.0, 1.0, (n, len(names))) * 10.0 ** rng.integers(-18, -10, (n, 7))
        return SearchBatch(
            match_mask=np.zeros((n, 4), dtype=bool),
            first_match=np.full(n, -1),
            components=names,
            energy=energy,
            search_delay=np.ones(n),
            cycle_time=np.ones(n),
            functional_errors=np.zeros(n, dtype=np.int64),
            class_counts=np.zeros((n, 3), dtype=np.int64),
        )

    def test_totals_equal_ledger_totals(self):
        batch = self._batch()
        assert batch.energy_totals() == [o.energy.total for o in batch]

    def test_totals_with_share_equal_request_energy(self):
        batch = self._batch()
        model = ServiceModel(e_overhead=3e-12)
        size = len(batch)
        assert batch.energy_totals(model.e_overhead / size) == [
            request_energy(o, model, size).total for o in batch
        ]


class _Recording:
    """Backend wrapper that keeps every batch it returned."""

    def __init__(self, backend):
        self.backend = backend
        self.batches = []

    def search_batch(self, keys, banks):
        out = self.backend.search_batch(keys, banks)
        self.batches.append(out)
        return out


def _array_backend():
    _, array = _twins("fefet2t", seed=8)
    return ArrayBackend(array)


def _chip_backend():
    def bank():
        return build_array(get_design("fefet2t"), ArrayGeometry(ROWS, COLS))

    chip = TCAMChip(bank, n_banks=2)
    rng = np.random.default_rng(9)
    chip.load([random_word(COLS, rng, 0.3) for _ in range(2 * ROWS)])
    return ChipBackend(chip)


def _trace(banks=1):
    """A Poisson trace whose keys carry don't-care trits."""
    trace = poisson_trace(160, rate=3e7, cols=COLS, seed=10, n_banks=banks)
    return replace(trace, keys=_keys(160, seed=10, x_fraction=0.4))


def _policy():
    return make_policy("adaptive", max_batch=16, max_wait=2e-6)


class TestServeReadsColumns:
    def test_record_energy_is_request_energy(self):
        backend = _Recording(_array_backend())
        model = ServiceModel()
        engine = ServeEngine(backend, _policy(), model=model)
        records = []
        for seq, t, key, bank in _trace():
            records.extend(engine.offer(seq, t, key, bank))
        records.extend(engine.drain())
        assert all(isinstance(b, SearchBatch) for b in backend.batches)
        by_batch = {}
        for rec in records:
            by_batch.setdefault(rec.batch_id, []).append(rec)
        for batch_id, recs in by_batch.items():
            batch = backend.batches[batch_id]
            for rec, outcome in zip(recs, batch):
                assert rec.energy == request_energy(outcome, model, rec.batch_size).total
                assert rec.row == outcome.first_match
                assert rec.matched == (outcome.first_match is not None)

    def test_chip_columns_equal_per_key_reference(self, per_key_search):
        """A two-bank chip backend serves the same records as the per-key
        reference behind each bank."""
        batched = run_trace(_chip_backend(), _trace(2), _policy())
        with per_key_search():
            ref = run_trace(_chip_backend(), _trace(2), _policy())
        assert batched.to_dict() == ref.to_dict()
        assert [r.to_dict() for r in batched.records] == [r.to_dict() for r in ref.records]

    def test_columns_equal_per_key_reference(self, per_key_search):
        batched = run_trace(_array_backend(), _trace(), _policy())
        with per_key_search():
            ref = run_trace(_array_backend(), _trace(), _policy())
        assert batched.to_dict() == ref.to_dict()
        assert [r.to_dict() for r in batched.records] == [r.to_dict() for r in ref.records]
