"""Bulk row loading: ledger-identical to per-row writes, one version bump.

``TCAMArray.load_rows`` (and the chip-level wrapper) must store the very
same content, wear, valid bits and per-row write energies as a
sequential :meth:`write` loop -- while bumping the content version once
for the whole block.  ``load`` delegates to ``load_rows`` on both the
array and the chip, so the oracle here is an explicit ``write`` loop:
per array, and per bank for a chip (each touched bank's wake, then its
own loop, merged in bank order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import all_designs, build_array, get_design
from repro.energy.accounting import EnergyComponent, EnergyLedger
from repro.errors import CapacityError, TCAMError
from repro.tcam import ArrayGeometry, HierarchicalBank, NANDTCAMArray, SegmentedBank
from repro.tcam.chip import GatingPolicy, TCAMChip
from repro.tcam.trit import random_word

WRITABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]


def _fresh_pair(design_name, rows=16, cols=12):
    spec = get_design(design_name)
    geo = ArrayGeometry(rows=rows, cols=cols)
    return build_array(spec, geo), build_array(spec, geo)


def _words(cols, n, seed, x_fraction=0.25):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction) for _ in range(n)]


def _write_loop(target, words, start_row=0):
    """The per-row oracle: one ``write`` per word, ledgers merged in row
    order (arrays return a ``WriteOutcome``, chips a ledger)."""
    ledger = EnergyLedger()
    for offset, word in enumerate(words):
        out = target.write(start_row + offset, word)
        ledger.merge(getattr(out, "energy", out))
    return ledger


def _bank_write_loops(chip, words, start_row=0):
    """The chip ``load_rows`` ledger contract: for each touched bank in
    bank order, the bank's wake and then the bank's own :func:`_write_loop`
    over its rows, merged into one chip ledger."""
    rows = chip.geometry.rows
    ledger = EnergyLedger()
    pos = 0
    while pos < len(words):
        bank_idx, local_row = divmod(start_row + pos, rows)
        n_block = min(rows - local_row, len(words) - pos)
        chip._wake(bank_idx, ledger)
        bank = chip.banks[bank_idx]
        ledger.merge(_write_loop(bank, words[pos : pos + n_block], start_row=local_row))
        pos += n_block
    return ledger


def _assert_same_state(a, b):
    assert np.array_equal(a.stored_matrix(), b.stored_matrix())
    assert np.array_equal(a.valid_mask(), b.valid_mask())
    assert np.array_equal(a.wear_counts(), b.wear_counts())


class TestArrayLoadRows:
    @pytest.mark.parametrize("design", WRITABLE)
    def test_ledger_identical_to_write_loop(self, design):
        a, b = _fresh_pair(design)
        words = _words(12, 16, seed=3)
        ref = _write_loop(a, words)
        got = b.load_rows(words)
        _assert_same_state(a, b)
        assert list(ref.as_dict()) == list(got.as_dict())
        assert ref.as_dict() == got.as_dict()
        assert ref.total == got.total

    def test_overwrite_at_offset(self):
        a, b = _fresh_pair("fefet2t")
        base = _words(12, 16, seed=5)
        _write_loop(a, base)
        b.load_rows(base)
        words = _words(12, 6, seed=7)
        ref = _write_loop(a, words, start_row=4)
        got = b.load_rows(words, start_row=4)
        _assert_same_state(a, b)
        assert ref.as_dict() == got.as_dict()

    def test_single_version_bump_and_single_flush(self, monkeypatch):
        """One version bump, so the kernel's SoA content snapshot is
        flushed and rebuilt once for the whole block."""
        from repro.kernels import SoAState

        a, _ = _fresh_pair("fefet2t")
        words = _words(12, 16, seed=9)
        keys = _words(12, 3, seed=10)
        a.search_batch(keys)
        rebuilds = []
        build = SoAState.from_array
        monkeypatch.setattr(
            SoAState, "from_array",
            lambda *args: rebuilds.append(args) or build(*args),
        )
        before = a._content_version
        a.load_rows(words)
        assert a._content_version == before + 1
        a.search_batch(keys)
        a.search_batch(keys)
        assert len(rebuilds) == 1

    def test_bounds_and_width_errors(self):
        a, _ = _fresh_pair("fefet2t")
        words = _words(12, 17, seed=11)
        with pytest.raises(TCAMError):
            a.load_rows(words)
        with pytest.raises(TCAMError):
            a.load_rows(_words(12, 4, seed=11), start_row=13)
        with pytest.raises(TCAMError):
            a.load_rows(_words(10, 2, seed=11))

    def test_empty_block_is_a_no_op(self):
        a, _ = _fresh_pair("fefet2t")
        before = a._content_version
        ledger = a.load_rows([])
        assert ledger.total == 0.0
        assert a._content_version == before
        assert not a.valid_mask().any()


class TestChipLoadRows:
    def _chip_pair(self, gating=None, n_banks=3, rows=8, cols=12):
        spec = get_design("fefet2t")
        geo = ArrayGeometry(rows=rows, cols=cols)

        def factory():
            return build_array(spec, geo)

        return (
            TCAMChip(factory, n_banks=n_banks, gating=gating),
            TCAMChip(factory, n_banks=n_banks, gating=gating),
        )

    def test_ledger_identical_to_write_loop_across_banks(self):
        # Each bank's ledger is that bank's own write loop, merged in bank
        # order; one chip-level write loop rounds differently in general.
        ref_chip, bulk_chip = self._chip_pair()
        words = _words(12, 20, seed=13)  # spans 2.5 banks
        ref = _bank_write_loops(ref_chip, words)
        got = bulk_chip.load_rows(words)
        for ra, rb in zip(ref_chip.banks, bulk_chip.banks):
            _assert_same_state(ra, rb)
        assert ref.as_dict() == got.as_dict()
        assert ref.total == got.total

    def test_start_row_offset_spans_bank_boundary(self):
        ref_chip, bulk_chip = self._chip_pair()
        words = _words(12, 10, seed=17)
        start = 5  # rows 5..14 touch banks 0 and 1
        ref_ledger = _bank_write_loops(ref_chip, words, start_row=start)
        got = bulk_chip.load_rows(words, start_row=start)
        for ra, rb in zip(ref_chip.banks, bulk_chip.banks):
            _assert_same_state(ra, rb)
        assert ref_ledger.as_dict() == got.as_dict()

    def test_gated_chip_wakes_each_touched_bank_once(self):
        gating = GatingPolicy(
            gate_idle_banks=True, wakeup_latency=1e-9, wakeup_energy=2e-12
        )
        ref_chip, bulk_chip = self._chip_pair(gating=gating)
        words = _words(12, 20, seed=19)
        ref = _bank_write_loops(ref_chip, words)
        got = bulk_chip.load_rows(words)
        assert ref.as_dict() == got.as_dict()

    def test_capacity_error(self):
        _, chip = self._chip_pair()
        with pytest.raises(CapacityError):
            chip.load_rows(_words(12, 25, seed=23))
        with pytest.raises(CapacityError):
            chip.load_rows(_words(12, 4, seed=23), start_row=22)


def _loaded_array():
    a, _ = _fresh_pair("fefet2t", rows=4, cols=12)
    a.load_rows(_words(12, 4, seed=29))
    return a


def _loaded_chip():
    spec = get_design("fefet2t")
    geo = ArrayGeometry(rows=4, cols=12)
    chip = TCAMChip(lambda: build_array(spec, geo), n_banks=2)
    chip.load_rows(_words(12, 8, seed=31))
    return chip


def _banks(target):
    return target.banks if isinstance(target, TCAMChip) else [target]


class TestStartRowValidation:
    @pytest.mark.parametrize("make", [_loaded_array, _loaded_chip], ids=["array", "chip"])
    @pytest.mark.parametrize(
        "start_row", [-1, -4, np.int64(-2), 2.0, np.float64(1.0), True, False, None, "1"]
    )
    def test_rejected_without_touching_content(self, make, start_row):
        target = make()
        banks = _banks(target)
        versions = [b._content_version for b in banks]
        stored = [b.stored_matrix().copy() for b in banks]
        with pytest.raises(TCAMError, match="load_rows"):
            target.load_rows(_words(12, 1, seed=37), start_row=start_row)
        assert [b._content_version for b in banks] == versions
        for b, before in zip(banks, stored):
            assert np.array_equal(b.stored_matrix(), before)

    @pytest.mark.parametrize("make", [_loaded_array, _loaded_chip], ids=["array", "chip"])
    def test_numpy_integer_accepted(self, make):
        target = make()
        word = _words(12, 1, seed=41)[0]
        target.load_rows([word], start_row=np.int64(1))
        assert np.array_equal(_banks(target)[0].stored_matrix()[1], word.as_array())


def _bank_factory(kind, design, geo):
    spec = get_design(design)
    if kind == "array":
        return lambda: build_array(spec, geo)
    if kind == "nand":
        return lambda: NANDTCAMArray(geo)
    if kind == "segmented":
        return lambda: SegmentedBank(spec.build_cell(), geo, 5, sensing=spec.sensing)
    return lambda: HierarchicalBank(spec.build_cell(), geo, [3, 5, 8], sensing=spec.sensing)


class TestChipLoadContract:
    """``TCAMChip.load_rows`` books, for each touched bank in bank order,
    the bank's wake and then that bank's own ``write`` loop ledger over
    its rows (row ledgers merged in row order).  This is the contract for
    every bank type; it is not one chip-level ``write`` loop, whose single
    running sum rounds differently."""

    @pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
    @pytest.mark.parametrize(
        "kind,design",
        [(kind, design) for kind in ("array", "segmented", "hierarchical")
         for design in ("fefet2t", "cmos16t")] + [("nand", "fefet_nand")],
    )
    def test_bank_ledgers_merged_in_bank_order(self, kind, design, gated):
        geo = ArrayGeometry(rows=8, cols=16)
        gating = GatingPolicy(gate_idle_banks=gated, wakeup_energy=2e-12)
        start = 2
        for seed in range(8):
            ref, got = (
                TCAMChip(_bank_factory(kind, design, geo), n_banks=3, gating=gating)
                for _ in range(2)
            )
            words = _words(16, 20, seed=seed, x_fraction=0.3)
            expected = EnergyLedger()
            for bank_idx, bank in enumerate(ref.banks):
                lo = max(bank_idx * 8, start)
                hi = min((bank_idx + 1) * 8, start + len(words))
                if gated:
                    expected.add(EnergyComponent.CLOCK, gating.wakeup_energy)
                bank_ledger = EnergyLedger()
                for row in range(lo, hi):
                    out = bank.write(row - bank_idx * 8, words[row - start])
                    bank_ledger.merge(getattr(out, "energy", out))
                expected.merge(bank_ledger)
            ledger = got.load_rows(words, start_row=start)
            assert list(ledger) == list(expected), seed
            for rb, gb in zip(ref.banks, got.banks):
                for ra, ga in zip(getattr(rb, "stages", [rb]), getattr(gb, "stages", [gb])):
                    assert np.array_equal(ra.stored_matrix(), ga.stored_matrix())
                    assert np.array_equal(ra.valid_mask(), ga.valid_mask())
