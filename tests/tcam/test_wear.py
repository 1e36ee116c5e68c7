"""Tests for cell-wear tracking."""

from __future__ import annotations

from repro.core import build_array, get_design
from repro.tcam import ArrayGeometry, word_from_string


def _array(rows=4, cols=8):
    return build_array(get_design("fefet2t"), ArrayGeometry(rows, cols))


class TestWearCounting:
    def test_fresh_array_has_zero_wear(self):
        arr = _array()
        assert arr.wear_counts().sum() == 0
        assert arr.wear_report()["max"] == 0.0

    def test_first_write_counts_changed_cells(self):
        arr = _array()
        arr.write(0, word_from_string("10101010"))
        # All 8 cells change from the erased X state.
        assert arr.wear_counts()[0].sum() == 8

    def test_identical_rewrite_adds_no_wear(self):
        arr = _array()
        w = word_from_string("10X10X10")
        arr.write(0, w)
        before = arr.wear_counts().sum()
        arr.write(0, w)
        assert arr.wear_counts().sum() == before

    def test_single_trit_change_wears_one_cell(self):
        arr = _array()
        arr.write(0, word_from_string("10101010"))
        arr.write(0, word_from_string("00101010"))
        counts = arr.wear_counts()
        assert counts[0, 0] == 2
        assert counts[0, 1:].sum() == 7

    def test_hot_cell_located(self, rng):
        arr = _array()
        for k in range(5):
            arr.write(2, word_from_string("10101010" if k % 2 else "00101010"))
        report = arr.wear_report()
        assert report["hot_row"] == 2.0
        assert report["hot_col"] == 0.0

    def test_wear_counts_is_copy(self):
        arr = _array()
        arr.write(0, word_from_string("10101010"))
        counts = arr.wear_counts()
        counts[:] = 0
        assert arr.wear_counts().sum() == 8
