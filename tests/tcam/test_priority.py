"""Tests for the priority encoder and multi-match reducer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TCAMError
from repro.tcam.priority import PriorityEncoder


class TestPriorityEncoder:
    def test_first_match(self):
        pe = PriorityEncoder(4)
        assert pe.encode(np.array([False, True, True, False])) == 1

    def test_no_match_is_none(self):
        pe = PriorityEncoder(4)
        assert pe.encode(np.zeros(4, dtype=bool)) is None

    def test_row_zero_wins(self):
        pe = PriorityEncoder(4)
        assert pe.encode(np.ones(4, dtype=bool)) == 0

    def test_stage_count_log2(self):
        assert PriorityEncoder(1024).n_stages == 10
        assert PriorityEncoder(1).n_stages == 1

    def test_energy_scales_with_rows(self):
        assert PriorityEncoder(1024).energy_per_search == pytest.approx(
            16 * PriorityEncoder(64).energy_per_search
        )

    def test_delay_scales_with_stages(self):
        assert PriorityEncoder(1024).delay > PriorityEncoder(16).delay

    def test_rejects_wrong_mask_shape(self):
        pe = PriorityEncoder(4)
        with pytest.raises(TCAMError):
            pe.encode(np.zeros(5, dtype=bool))

    def test_rejects_bad_row_count(self):
        with pytest.raises(TCAMError):
            PriorityEncoder(0)

    def test_rejects_negative_costs(self):
        with pytest.raises(TCAMError):
            PriorityEncoder(4, e_per_row=-1.0)
