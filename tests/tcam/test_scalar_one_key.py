"""Scalar searches are one-key batches on the compiled kernel.

``TCAMArray.search``, ``nearest_match``, ``threshold_match`` and
``topk_match`` validate their input and run one key through the batch
kernel tail.  They must equal the per-key reference functions of
:mod:`repro.tcam.reference` in every outcome field and in the ledger
booking order, and leave the same search-line drive state behind, for
every registered cell, both sensing styles, healthy and faulted arrays,
an all-false row mask, and class tables compiled up front ("full") or
on demand ("reduced").  A traced
one-key call keeps its span name and per-phase energy children, whose
sum is the outcome ledger.  Malformed input raises a ``TCAMError``
naming the scalar API and moves no state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import TCAMError
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry, TCAMArray, reference
from repro.tcam.array import _SPAN_ENERGY_GROUPS, SENSING_STYLES
from repro.tcam.cells import get_cell, list_cells
from repro.tcam.trit import random_word

ROWS, COLS = 12, 16


def _array(cell: str, sensing: str) -> TCAMArray:
    array = TCAMArray(get_cell(cell), ArrayGeometry(ROWS, COLS), sensing=sensing)
    rng = np.random.default_rng(5)
    array.load([random_word(COLS, rng, 0.2) for _ in range(ROWS)])
    return array


def _faults(rng) -> FaultMap:
    """Dead rows, SA offsets and retention shifts, plus stuck cells."""
    fm = FaultMap(ROWS, COLS)
    for r in (1, 4):
        fm.set_dead_row(r)
    fm.set_sa_offset(2, 0.05)
    fm.set_sa_offset(7, -0.1)
    for _ in range(10):
        r, c = int(rng.integers(ROWS)), int(rng.integers(COLS))
        fm.set_cell(r, c, FaultKind.RETENTION, float(rng.choice([0.1, 0.3, 0.45])))
    fm.set_cell(3, 5, FaultKind.STUCK_MISS)
    fm.set_cell(6, 2, FaultKind.STUCK_MATCH)
    return fm


def _keys(array: TCAMArray, n: int = 6) -> list:
    rng = np.random.default_rng(9)
    keys = [random_word(COLS, rng, 0.15) for _ in range(n - 2)]
    # Stored words make real matches (and fault-flipped ones) likely.
    return keys + [array.word_at(0), array.word_at(6)]


def _twins(cell, sensing, faulty, grid):
    ref, got = _array(cell, sensing), _array(cell, sensing)
    if faulty:
        fm = _faults(np.random.default_rng(3))
        ref.attach_faults(fm.copy())
        got.attach_faults(fm)
    if grid == "full":
        # The whole class triangle compiled before the first search; a
        # "reduced" kernel compiles only the rows its keys need.
        got.kernel.precompute()
    return ref, got


def _assert_same(ref, got):
    assert ref.to_dict() == got.to_dict()
    assert list(ref.energy) == list(got.energy)  # booking order


CELLS = list_cells()


class TestOneKeyEqualsReference:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("sensing", SENSING_STYLES)
    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faulted"])
    @pytest.mark.parametrize("mask", ["none", "all_false"])
    @pytest.mark.parametrize("grid", ["full", "reduced"])
    def test_search(self, cell, sensing, faulty, mask, grid):
        ref, got = _twins(cell, sensing, faulty, grid)
        row_mask = None if mask == "none" else np.zeros(ROWS, dtype=bool)
        for key in _keys(ref):
            _assert_same(reference.search(ref, key, row_mask), got.search(key, row_mask))
            assert ref._last_drive == got._last_drive
        assert (got.kernel.rows_built == COLS + 1) == (grid == "full")

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("grid", ["full", "reduced"])
    def test_distance_searches(self, cell, grid):
        ref, got = _twins(cell, "precharge", False, grid)
        for key in _keys(ref):
            _assert_same(reference.nearest_match(ref, key), got.nearest_match(key))
            _assert_same(reference.threshold_match(ref, key, 2), got.threshold_match(key, 2))
            _assert_same(reference.topk_match(ref, key, 3), got.topk_match(key, 3))
            assert ref._last_drive == got._last_drive
        assert (got.kernel.rows_built == COLS + 1) == (grid == "full")

    def test_interleaves_with_batches(self):
        """Scalar calls thread the drive state through batches."""
        ref, got = _twins("fefet2t", "precharge", False, "full")
        keys = _keys(ref, 8)
        expected = [reference.search(ref, k) for k in keys]
        mixed = [got.search(keys[0])] + list(got.search_batch(keys[1:5]))
        mixed += [got.search(keys[5])] + list(got.search_batch(keys[6:]))
        for r, g in zip(expected, mixed):
            _assert_same(r, g)
        assert ref._last_drive == got._last_drive


def _one_key_calls():
    return {
        "search": lambda a, key: a.search(key),
        "nearest_match": lambda a, key: a.nearest_match(key),
        "threshold_match": lambda a, key: a.threshold_match(key, 2),
        "topk_match": lambda a, key: a.topk_match(key, 3),
    }


class TestOneKeySpans:
    # Distance searches reject fault maps, so only ``search`` runs faulted.
    @pytest.mark.parametrize(
        "api, faulty",
        [(api, False) for api in _one_key_calls()] + [("search", True)],
    )
    def test_span_sum_equals_ledger(self, api, faulty):
        array = _array("fefet2t", "precharge")
        if faulty:
            array.attach_faults(_faults(np.random.default_rng(4)))
        key = _keys(array)[0]
        hits = array.kernel.table_hits
        with obs.observe() as sess:
            out = _one_key_calls()[api](array, key)
        (root,) = sess.spans
        assert root.name == "array." + api
        assert root.delay == out.search_delay
        assert list(root.total_energy()) == list(out.energy)
        assert root.total_energy().total == out.energy.total
        phases = {c.name for c in root.children if c.energy.components()}
        assert phases <= set(_SPAN_ENERGY_GROUPS.values())
        snap = sess.metrics.snapshot()
        assert snap["tcam.searches"] == 1.0
        assert "tcam.batch_size" not in snap
        # Kernel counters count scalar calls too.
        assert snap["kernels.table_hits"] == array.kernel.table_hits - hits > 0

    def test_current_race_span_sum(self):
        array = _array("fefet2t", "current_race")
        with obs.observe() as sess:
            out = array.search(_keys(array)[1])
        (root,) = sess.spans
        assert list(root.total_energy()) == list(out.energy)


def _malformed_cases():
    """``(api, make_array, call)`` for every rejected scalar input."""
    wide = np.zeros(COLS + 1, dtype=np.int8)
    key = np.zeros(COLS, dtype=np.int8)

    def precharge():
        return _array("fefet2t", "precharge")

    def current_race():
        return _array("fefet2t", "current_race")

    def faulted():
        array = precharge()
        array.attach_faults(_faults(np.random.default_rng(6)))
        return array

    cases = {
        "search-width": ("search", precharge, lambda a: a.search(wide)),
        "search-row_mask": ("search", precharge, lambda a: a.search(key, np.ones(ROWS - 1))),
        "search-faulted-width": ("search", faulted, lambda a: a.search(wide)),
        "threshold-negative": (
            "threshold_match", precharge, lambda a: a.threshold_match(key, -1)
        ),
        "topk-zero": ("topk_match", precharge, lambda a: a.topk_match(key, 0)),
    }
    distance = {
        "nearest_match": lambda a, k: a.nearest_match(k),
        "threshold_match": lambda a, k: a.threshold_match(k, 2),
        "topk_match": lambda a, k: a.topk_match(k, 3),
    }
    for api, call in distance.items():
        cases[f"{api}-width"] = (api, precharge, lambda a, c=call: c(a, wide))
        cases[f"{api}-current_race"] = (api, current_race, lambda a, c=call: c(a, key))
        cases[f"{api}-faulted"] = (api, faulted, lambda a, c=call: c(a, key))
    return cases


MALFORMED = _malformed_cases()


class TestMalformedScalarInput:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_typed_error_and_no_side_effects(self, case):
        api, make, call = MALFORMED[case]
        array = make()
        array.search_batch(_keys(array, 3))  # a drive state and counters to keep
        eng = array.kernel
        counters = (eng.table_hits, eng.rows_built)
        drive = array._last_drive
        with obs.observe() as sess:
            with pytest.raises(TCAMError, match=rf"\b{api}\b") as exc:
                call(array)
            searches = sess.metrics.snapshot().get("tcam.searches", 0.0)
        assert f"{api}_batch" not in str(exc.value)
        assert array._last_drive == drive
        assert (eng.table_hits, eng.rows_built) == counters
        assert searches == 0.0
