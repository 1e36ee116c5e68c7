"""Tests for the NAND-type FeFET TCAM array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.energy import EnergyComponent
from repro.errors import TCAMError
from repro.tcam import ArrayGeometry, NANDTCAMArray, random_word, word_from_string
from repro.tcam.trit import Trit, nand_drive_vector, nand_sl_drive


def _loaded(rows=8, cols=16, seed=0, x_fraction=0.3):
    rng = np.random.default_rng(seed)
    arr = NANDTCAMArray(ArrayGeometry(rows, cols))
    words = [random_word(cols, rng, x_fraction=x_fraction) for _ in range(rows)]
    arr.load(words)
    return arr, words, rng


class TestDriveConvention:
    def test_x_raises_both_lines(self):
        assert nand_sl_drive(Trit.X) == (1, 1)

    def test_specified_symbols(self):
        assert nand_sl_drive(Trit.ZERO) == (1, 0)
        assert nand_sl_drive(Trit.ONE) == (0, 1)

    def test_vector_packing(self):
        assert nand_drive_vector(word_from_string("X")) == (3,)


class TestCorrectness:
    def test_search_agrees_with_reference(self):
        arr, words, rng = _loaded()
        for _ in range(8):
            key = random_word(16, rng)
            out = arr.search(key)
            expected = np.array([w.matches(key) for w in words])
            assert np.array_equal(out.match_mask, expected)
            assert out.functional_errors == 0

    def test_registry_builds_nand(self):
        arr = build_array(get_design("fefet_nand"), ArrayGeometry(4, 8))
        assert isinstance(arr, NANDTCAMArray)

    def test_word_roundtrip(self):
        arr, _, _ = _loaded()
        w = word_from_string("10XX01XX10XX01XX")
        arr.write(3, w)
        assert arr.word_at(3) == w

    def test_write_outcome_contract(self):
        arr = NANDTCAMArray(ArrayGeometry(4, 8))
        out = arr.write(0, word_from_string("10101010"))
        assert out.cells_changed == 8
        assert out.energy.get(EnergyComponent.WRITE) > 0.0
        assert out.latency > 0.0

    def test_unwritten_rows_never_match(self):
        arr = NANDTCAMArray(ArrayGeometry(4, 8))
        arr.write(0, word_from_string("10101010"))
        from repro.tcam.trit import TernaryWord

        out = arr.search(TernaryWord([Trit.X] * 8))
        assert out.match_mask[0]
        assert not out.match_mask[1:].any()

    def test_rejects_bad_widths(self):
        arr, _, rng = _loaded()
        with pytest.raises(TCAMError):
            arr.search(random_word(8, rng))
        with pytest.raises(TCAMError):
            arr.write(0, random_word(8, rng))


class TestNANDTradeoffs:
    def test_miss_dominated_search_cheaper_than_nor(self):
        """The architecture's claim: misses pay (almost) no match-path energy."""
        rng = np.random.default_rng(1)
        geo = ArrayGeometry(32, 64)
        words = [random_word(64, rng) for _ in range(32)]
        nand = NANDTCAMArray(geo)
        nand.load(words)
        nor = build_array(get_design("fefet2t"), geo)
        nor.load(words)
        key = random_word(64, rng)
        e_nand = nand.search(key).energy_total
        e_nor = nor.search(key).energy_total
        assert e_nand < 0.5 * e_nor

    def test_match_path_energy_negligible_on_all_miss(self):
        arr, words, rng = _loaded(x_fraction=0.0)
        key = random_word(16, rng)
        out = arr.search(key)
        if not out.match_mask.any():
            ml = out.energy.get(EnergyComponent.ML_PRECHARGE)
            assert ml < 0.01 * out.energy_total

    def test_delay_grows_superlinearly_with_width(self):
        d16 = NANDTCAMArray(ArrayGeometry(4, 16)).t_eval
        d64 = NANDTCAMArray(ArrayGeometry(4, 64)).t_eval
        assert d64 > 6.0 * (d16 * 64 / 16) / 4  # clearly superlinear trend
        assert d64 / d16 > 6.0

    def test_nand_slower_than_nor_at_wide_words(self):
        geo = ArrayGeometry(8, 128)
        nand = NANDTCAMArray(geo)
        nor = build_array(get_design("fefet2t"), geo)
        assert nand.t_eval > nor.t_eval

    def test_search_x_key_matches_everything_and_costs_sl(self):
        arr, words, rng = _loaded()
        from repro.tcam.trit import TernaryWord

        out = arr.search(TernaryWord([Trit.X] * 16))
        assert out.match_mask.all()
        # NAND X-search raises both lines of every column.
        assert out.energy.get(EnergyComponent.SEARCHLINE) > 0.0
