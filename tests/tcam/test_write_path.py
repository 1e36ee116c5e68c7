"""The tabled write path against the per-cell reference loop.

``TCAMArray.write``, ``load`` and ``load_rows`` price every cell from the
estimator's cached 3x3 ``(old, new)`` transition tables.  The oracle
here is the loop they replaced: one ``estimator.write_cost`` call and
one ``ledger.add`` per cell.  Every registered cell, under both sensing
styles, must book the same floats in the same order, with the same
latency, changed-cell count, wear and content.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.energy.accounting import EnergyComponent, EnergyLedger
from repro.energy.estimator import ArrayEstimator, WriteTables
from repro.errors import ReproError, TCAMError
from repro.tcam import ArrayGeometry, TCAMArray
from repro.tcam.array import WriteOutcome
from repro.tcam.bank import HierarchicalBank, SegmentedBank
from repro.tcam.cell import WriteCost
from repro.tcam.cells import get_cell, list_cells
from repro.tcam.cells.fefet2t import FeFET2TCell
from repro.tcam.cells.fefet_mlc import MLCFeFETCell
from repro.tcam.chip import GatingPolicy, TCAMChip
from repro.tcam.nand_array import NANDTCAMArray
from repro.tcam.trit import TernaryWord, Trit, random_word, word_from_string
from repro.tcam.weighted import WeightedTCAMArray

ROWS, COLS = 8, 16
SENSING = ("precharge", "current_race")


def reference_write(array: TCAMArray, row: int, word: TernaryWord) -> WriteOutcome:
    """The per-cell write loop: ``write_cost`` and ``ledger.add`` per cell."""
    ledger = EnergyLedger()
    latency = 0.0
    changed = 0
    new = word.as_array()
    for col in range(array.cols):
        old_trit = Trit(int(array._stored[row, col]))
        new_trit = Trit(int(new[col]))
        cost = array.estimator.write_cost(old_trit, new_trit)
        ledger.add(EnergyComponent.WRITE, cost.energy)
        latency = max(latency, cost.latency)
        if old_trit is not new_trit:
            changed += 1
            array._write_counts[row, col] += 1
    array._stored[row] = new
    array._valid[row] = True
    array._content_version += 1
    return WriteOutcome(row=row, energy=ledger, latency=latency, cells_changed=changed)


def reference_load(array: TCAMArray, words, start_row: int = 0) -> EnergyLedger:
    ledger = EnergyLedger()
    for offset, word in enumerate(words):
        ledger.merge(reference_write(array, start_row + offset, word).energy)
    return ledger


def _pair(cell: str, sensing: str):
    geo = ArrayGeometry(rows=ROWS, cols=COLS)
    return (
        TCAMArray(get_cell(cell), geo, sensing=sensing),
        TCAMArray(get_cell(cell), geo, sensing=sensing),
    )


def _words(n: int, seed: int, x_fraction: float = 0.3):
    rng = np.random.default_rng(seed)
    return [random_word(COLS, rng, x_fraction) for _ in range(n)]


def _same_ledger(a: EnergyLedger, b: EnergyLedger) -> bool:
    """Equal floats in the same booking order."""
    return list(a) == list(b)


def _assert_same_state(ref: TCAMArray, got: TCAMArray) -> None:
    assert np.array_equal(ref.stored_matrix(), got.stored_matrix())
    assert np.array_equal(ref.valid_mask(), got.valid_mask())
    assert np.array_equal(ref._write_counts, got._write_counts)


@pytest.mark.parametrize("sensing", SENSING)
@pytest.mark.parametrize("cell", list_cells())
class TestAgainstPerCellLoop:
    def test_write(self, cell, sensing):
        ref, got = _pair(cell, sensing)
        rng = np.random.default_rng(1)
        # Repeated overwrites of a few rows visit all nine transitions.
        for i, word in enumerate(_words(40, seed=2)):
            row = int(rng.integers(ROWS))
            a = reference_write(ref, row, word)
            b = got.write(row, word)
            assert _same_ledger(a.energy, b.energy), i
            assert a.latency == b.latency
            assert a.cells_changed == b.cells_changed
            assert b.row == row
        _assert_same_state(ref, got)
        assert ref._content_version == got._content_version

    def test_load_and_load_rows(self, cell, sensing):
        ref, got = _pair(cell, sensing)
        base, over = _words(ROWS, seed=3), _words(5, seed=4)
        for bulk in (got.load, got.load_rows):
            assert _same_ledger(reference_load(ref, base), bulk(base))
            _assert_same_state(ref, got)
            # Overwrite at an offset: every row starts from a stored word.
            assert _same_ledger(reference_load(ref, over, 2), bulk(over, start_row=2))
            _assert_same_state(ref, got)


class TestWriteTable:
    def test_entries_are_write_cost(self):
        cell = get_cell("fefet2t")
        energy, latency = WriteTables(cell.write_cost)()
        assert energy.shape == latency.shape == (3, 3)
        for old in Trit:
            for new in Trit:
                cost = cell.write_cost(old, new)
                assert energy[int(old), int(new)] == cost.energy
                assert latency[int(old), int(new)] == cost.latency
        assert not energy.flags.writeable and not latency.flags.writeable

    def test_built_once_per_estimator(self):
        calls = []

        class Counting(ArrayEstimator):
            def write_cost(self, old, new):
                calls.append((old, new))
                return super().write_cost(old, new)

        array = TCAMArray(get_cell("fefet2t"), ArrayGeometry(ROWS, COLS))
        array.estimator = Counting(array)
        for row, word in enumerate(_words(ROWS, seed=5)):
            array.write(row, word)
        array.load_rows(_words(ROWS, seed=6))
        assert len(calls) == 9

    @pytest.mark.parametrize(
        "cost",
        [
            WriteCost(energy=math.inf, latency=1e-9),
            SimpleNamespace(energy=-1e-15, latency=1e-9),
            SimpleNamespace(energy=math.nan, latency=1e-9),
            SimpleNamespace(energy=1e-15, latency=-1e-9),
        ],
        ids=["inf-energy", "negative-energy", "nan-energy", "negative-latency"],
    )
    def test_invalid_price_raises_before_anything_moves(self, cost):
        class Broken(ArrayEstimator):
            def write_cost(self, old, new):
                if (old, new) == (Trit.X, Trit.ONE):
                    return cost
                return super().write_cost(old, new)

        array = TCAMArray(get_cell("fefet2t"), ArrayGeometry(ROWS, COLS))
        array.estimator = Broken(array)
        version, stored = array._content_version, array.stored_matrix()
        word = word_from_string("1" * COLS)
        with pytest.raises(ReproError):
            array.write(0, word)
        with pytest.raises(ReproError):
            array.load_rows([word])
        assert array._content_version == version
        assert np.array_equal(array.stored_matrix(), stored)
        assert not array.valid_mask().any()


def _per_cell(cell, stored_row: np.ndarray, word: TernaryWord):
    """Per-cell reference ledger, latency and changed count of one row."""
    ledger = EnergyLedger()
    latency = 0.0
    changed = 0
    for old, new in zip(stored_row.tolist(), word.as_array().tolist()):
        cost = cell.write_cost(Trit(old), Trit(new))
        ledger.add(EnergyComponent.WRITE, cost.energy)
        latency = max(latency, cost.latency)
        changed += old != new
    return ledger, latency, changed


class TestNandAndWeighted:
    def test_nand_write(self):
        array = NANDTCAMArray(ArrayGeometry(ROWS, COLS))
        for row, word in enumerate(_words(3 * ROWS, seed=13)):
            row %= ROWS
            ledger, latency, changed = _per_cell(array.cell, array._stored[row].copy(), word)
            out = array.write(row, word)
            assert _same_ledger(ledger, out.energy)
            assert (out.latency, out.cells_changed) == (latency, changed)

    def test_weighted_write(self):
        array = WeightedTCAMArray(ArrayGeometry(ROWS, COLS))
        weights = np.full(COLS, 2)
        for row, word in enumerate(_words(3 * ROWS, seed=14)):
            row %= ROWS
            ledger = _per_cell(array.cell, array._stored[row].copy(), word)[0]
            assert _same_ledger(ledger, array.write(row, word, weights))

    @pytest.mark.parametrize(
        "call, cell_cls",
        [("nand-write", FeFET2TCell), ("weighted-write", MLCFeFETCell)],
    )
    def test_nan_priced_write_raises_and_stores_nothing(self, call, cell_cls, monkeypatch):
        monkeypatch.setattr(
            cell_cls, "write_cost", lambda self, old, new: WriteCost(energy=math.nan, latency=0.0)
        )
        make, op = CALLS[call]
        array = make()
        stored = array._stored.copy()
        with pytest.raises(ReproError, match="write energy"):
            op(array, 0)
        assert np.array_equal(array._stored, stored)
        assert not array._valid.any()


def _nor():
    return TCAMArray(get_cell("fefet2t"), ArrayGeometry(ROWS, COLS))


def _word():
    return _words(1, seed=7)[0]


CALLS = {
    "nor-write": (_nor, lambda a, row: a.write(row, _word())),
    "nor-invalidate": (_nor, lambda a, row: a.invalidate(row)),
    "nor-word_at": (_nor, lambda a, row: a.word_at(row)),
    "nand-write": (
        lambda: NANDTCAMArray(ArrayGeometry(ROWS, COLS)),
        lambda a, row: a.write(row, _word()),
    ),
    "weighted-write": (
        lambda: WeightedTCAMArray(ArrayGeometry(ROWS, COLS)),
        lambda a, row: a.write(row, _word(), np.ones(COLS, dtype=int)),
    ),
}


def _snapshot(array):
    return getattr(array, "_content_version", None), array._stored.copy()


class TestRowValidation:
    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize(
        "row", [2.0, 1.5, True, np.float64(1.0), "1", -1, ROWS],
        ids=["2.0", "1.5", "True", "np.float64", "str", "-1", "rows"],
    )
    def test_bad_row_raises_before_anything_moves(self, call, row):
        make, op = CALLS[call]
        array = make()
        version, stored = _snapshot(array)
        with pytest.raises(TCAMError):
            op(array, row)
        after_version, after_stored = _snapshot(array)
        assert after_version == version
        assert np.array_equal(after_stored, stored)

    @pytest.mark.parametrize("call", ["nor-write", "nand-write", "weighted-write"])
    def test_numpy_integer_row_accepted(self, call):
        make, op = CALLS[call]
        array = make()
        op(array, np.int64(3))
        assert array._valid[3]

    def test_wrong_width_write_keeps_the_version(self):
        array = _nor()
        version = array._content_version
        with pytest.raises(TCAMError):
            array.write(0, random_word(COLS - 1, np.random.default_rng(8)))
        assert array._content_version == version


class TestAtomicLoad:
    @pytest.mark.parametrize("call", ["nor-write", "nand-write"])
    def test_array_load_rejects_the_block_whole(self, call):
        array = CALLS[call][0]()
        array.load(_words(ROWS, seed=9))
        version, stored = _snapshot(array)
        bad = random_word(COLS - 1, np.random.default_rng(10))
        with pytest.raises(TCAMError):
            array.load([_word(), bad])
        after_version, after_stored = _snapshot(array)
        assert after_version == version
        assert np.array_equal(after_stored, stored)

    @pytest.mark.parametrize("bad_index", [1, ROWS + 1], ids=["first-bank", "second-bank"])
    def test_chip_load_rejects_the_block_whole(self, bad_index):
        gating = GatingPolicy(gate_idle_banks=True)
        chip = TCAMChip(_nor, n_banks=2, gating=gating)
        words = _words(ROWS + 3, seed=11)
        words[bad_index] = random_word(COLS - 1, np.random.default_rng(12))
        powered = chip._powered.copy()
        with pytest.raises(TCAMError):
            chip.load(words)
        assert np.array_equal(chip._powered, powered)
        for bank in chip.banks:
            assert bank._content_version == 0
            assert not bank.valid_mask().any()
            assert (bank.stored_matrix() == int(Trit.X)).all()


def _bank(kind):
    geo = ArrayGeometry(ROWS, COLS)
    if kind == "segmented":
        return SegmentedBank(get_cell("fefet2t"), geo, probe_cols=5)
    return HierarchicalBank(get_cell("fefet2t"), geo, [3, 5, 8])


def _stage_state(bank):
    return [
        (s.stored_matrix().tolist(), s.valid_mask().tolist(), s.wear_counts().tolist(),
         s._content_version)
        for s in bank.stages
    ]


BAD_LOADS = {
    "width": lambda: ([_word(), random_word(COLS - 10, np.random.default_rng(10))], 0),
    "capacity": lambda: (_words(ROWS + 1, seed=13), 0),
    "start-past-end": lambda: (_words(2, seed=13), ROWS - 1),
    "bool-start": lambda: ([_word()], True),
    "float-start": lambda: ([_word()], 1.0),
}


class TestAtomicBankLoad:
    """A staged bank validates the whole block, ``start_row`` and the
    capacity before any stage stores a row."""

    @pytest.mark.parametrize("kind", ["segmented", "hierarchical"])
    @pytest.mark.parametrize("bad", list(BAD_LOADS))
    def test_bank_load_rejects_the_block_whole(self, kind, bad):
        bank = _bank(kind)
        bank.load(_words(3, seed=9), start_row=2)
        before = _stage_state(bank)
        words, start_row = BAD_LOADS[bad]()
        with pytest.raises(TCAMError, match="load"):
            bank.load(words, start_row=start_row)
        assert _stage_state(bank) == before

    @pytest.mark.parametrize("kind", ["segmented", "hierarchical"])
    def test_load_takes_a_trit_block(self, kind):
        words = _words(ROWS - 1, seed=15)
        by_word, by_block = _bank(kind), _bank(kind)
        ledger = by_word.load(words, start_row=np.int64(1))
        block = np.stack([w.as_array() for w in words]).astype(np.int64)
        assert _same_ledger(ledger, by_block.load(block, start_row=1))
        assert _stage_state(by_word) == _stage_state(by_block)

    @pytest.mark.parametrize("kind", ["segmented", "hierarchical"])
    @pytest.mark.parametrize("bad_index", [1, ROWS + 1], ids=["first-bank", "second-bank"])
    def test_gated_chip_load_rejects_the_block_whole(self, kind, bad_index):
        chip = TCAMChip(lambda: _bank(kind), n_banks=2, gating=GatingPolicy(gate_idle_banks=True))
        words = _words(ROWS + 3, seed=11)
        words[bad_index] = random_word(COLS - 1, np.random.default_rng(12))
        powered = chip._powered.copy()
        before = [_stage_state(bank) for bank in chip.banks]
        with pytest.raises(TCAMError):
            chip.load(words)
        assert np.array_equal(chip._powered, powered)
        assert [_stage_state(bank) for bank in chip.banks] == before
