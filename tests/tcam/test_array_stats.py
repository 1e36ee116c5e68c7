"""Tests for the array statistics and pipelining helpers."""

from __future__ import annotations

import pytest

from repro.core import build_array, get_design
from repro.tcam import ArrayGeometry, random_word, word_from_string


def _array(rows=8, cols=16, design="fefet2t"):
    return build_array(get_design(design), ArrayGeometry(rows, cols))


class TestOccupancy:
    def test_empty_array(self):
        assert _array().occupancy() == 0.0
        assert _array().x_density() == 0.0

    def test_half_full(self, rng):
        arr = _array()
        for row in range(4):
            arr.write(row, random_word(16, rng))
        assert arr.occupancy() == pytest.approx(0.5)

    def test_invalidation_reduces_occupancy(self, rng):
        arr = _array()
        arr.write(0, random_word(16, rng))
        arr.invalidate(0)
        assert arr.occupancy() == 0.0

    def test_x_density_counts_only_valid_rows(self):
        arr = _array(rows=4, cols=4)
        arr.write(0, word_from_string("1XX0"))
        assert arr.x_density() == pytest.approx(0.5)

    def test_x_density_statistics(self, rng):
        arr = _array(rows=64, cols=64)
        arr.load([random_word(64, rng, x_fraction=0.3) for _ in range(64)])
        assert arr.x_density() == pytest.approx(0.3, abs=0.03)
