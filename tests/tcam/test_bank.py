"""Tests for the segmented bank (selective precharge + early termination)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.energy import EnergyComponent
from repro.errors import TCAMError
from repro.tcam import (
    ArrayGeometry,
    SegmentedBank,
    TCAMArray,
    TernaryWord,
    random_word,
    word_from_string,
)
from repro.tcam.cells import FeFET2TCell


def _bank(rows=16, cols=32, probe=8, early=True, **array_kwargs):
    return SegmentedBank(
        FeFET2TCell(),
        ArrayGeometry(rows, cols),
        probe_cols=probe,
        early_terminate=early,
        **array_kwargs,
    )


def _flat_twin(bank, **array_kwargs):
    """A flat array holding the bank's current content, built with the
    array kwargs the bank was built with: the segmented-vs-flat A/B."""
    flat = TCAMArray(bank.stages[0].cell, bank.geometry, **array_kwargs)
    stored = np.concatenate([stage.stored_matrix() for stage in bank.stages], axis=1)
    for row in np.flatnonzero(bank.stages[0].valid_mask()).tolist():
        flat.write(row, TernaryWord(stored[row]))
    return flat


def _loaded_bank(rows=16, cols=32, probe=8, seed=1, x_fraction=0.3, early=True):
    rng = np.random.default_rng(seed)
    bank = _bank(rows, cols, probe, early)
    words = [random_word(cols, rng, x_fraction=x_fraction) for _ in range(rows)]
    bank.load(words)
    return bank, words, rng


class TestConstruction:
    def test_rejects_probe_out_of_range(self):
        with pytest.raises(TCAMError):
            _bank(probe=0)
        with pytest.raises(TCAMError):
            _bank(probe=32)

    def test_segments_partition_columns(self):
        bank = _bank(probe=10)
        assert bank.stage1.geometry.cols == 10
        assert bank.stage2.geometry.cols == 22


class TestWriteReadback:
    def test_word_roundtrip_across_segments(self):
        bank = _bank()
        w = word_from_string("10XX0101" * 4)
        bank.write(3, w)
        assert bank.word_at(3) == w

    def test_write_rejects_bad_width(self):
        bank = _bank()
        with pytest.raises(TCAMError):
            bank.write(0, word_from_string("101"))

    def test_write_energy_sums_segments(self):
        bank = _bank()
        w = word_from_string("10XX0101" * 4)
        ledger = bank.write(0, w)
        assert ledger.get(EnergyComponent.WRITE) > 0.0


class TestSearchCorrectness:
    def test_agrees_with_flat_reference(self):
        bank, words, rng = _loaded_bank()
        for _ in range(8):
            key = random_word(32, rng)
            seg = bank.search(key)
            expected = np.array([w.matches(key) for w in words])
            assert np.array_equal(seg.match_mask, expected)

    def test_planted_match_found(self):
        bank, words, rng = _loaded_bank(x_fraction=0.0)
        seg = bank.search(words[7])
        assert seg.match_mask[7]
        assert seg.first_match is not None

    def test_search_rejects_bad_width(self):
        bank, _, rng = _loaded_bank()
        with pytest.raises(TCAMError):
            bank.search(random_word(16, rng))


class TestSelectivePrechargeEnergy:
    def test_segmented_cheaper_than_flat_on_random_misses(self):
        """The headline claim of technique #2: random keys kill almost all
        rows in the probe, so tail MLs almost never precharge."""
        bank, words, rng = _loaded_bank(rows=32, cols=64, probe=12, x_fraction=0.0)
        key = random_word(64, rng)
        seg = bank.search(key)
        flat = _flat_twin(bank).search(key)
        assert seg.energy.get(EnergyComponent.ML_PRECHARGE) < 0.7 * flat.energy.get(
            EnergyComponent.ML_PRECHARGE
        )

    def test_survivor_count_reported(self):
        bank, words, rng = _loaded_bank(x_fraction=0.0)
        seg = bank.search(words[0])
        assert seg.survivors_stage1 >= 1

    def test_early_termination_skips_stage2(self):
        bank, words, rng = _loaded_bank(cols=32, probe=16, x_fraction=0.0)
        # A key whose probe half matches nothing.
        while True:
            key = random_word(32, rng)
            probe_part = key[:16]
            if not any(w[:16].matches(probe_part) for w in words):
                break
        seg = bank.search(key)
        assert seg.stage2_skipped
        assert seg.first_match is None

    def test_no_early_termination_always_runs_stage2(self):
        bank, words, rng = _loaded_bank(cols=32, probe=16, x_fraction=0.0, early=False)
        while True:
            key = random_word(32, rng)
            if not any(w[:16].matches(key[:16]) for w in words):
                break
        seg = bank.search(key)
        assert not seg.stage2_skipped

    def test_serial_stages_add_delay(self):
        bank, words, rng = _loaded_bank(x_fraction=0.0)
        seg = bank.search(words[0])  # guarantees survivors -> two stages
        flat = _flat_twin(bank).search(words[0])
        assert seg.search_delay > flat.search_delay
