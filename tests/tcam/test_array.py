"""Tests for the TCAM array core."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_array, get_design
from repro.energy import EnergyComponent
from repro.errors import TCAMError
from repro.tcam import ArrayGeometry, TCAMArray, random_word, word_from_string
from repro.tcam.cells import FeFET2TCell, get_cell
from repro.tcam.trit import TernaryWord, Trit


def _loaded_array(rows=8, cols=16, seed=0, x_fraction=0.3, design="fefet2t"):
    rng = np.random.default_rng(seed)
    arr = build_array(get_design(design), ArrayGeometry(rows, cols))
    words = [random_word(cols, rng, x_fraction=x_fraction) for _ in range(rows)]
    arr.load(words)
    return arr, words, rng


class TestConstruction:
    def test_rejects_bad_geometry(self):
        with pytest.raises(TCAMError):
            ArrayGeometry(0, 4)

    def test_rejects_unknown_sensing(self):
        with pytest.raises(TCAMError):
            TCAMArray(FeFET2TCell(), ArrayGeometry(4, 4), sensing="magic")

    def test_ml_capacitance_grows_with_cols(self):
        a16 = build_array(get_design("fefet2t"), ArrayGeometry(4, 16))
        a64 = build_array(get_design("fefet2t"), ArrayGeometry(4, 64))
        assert a64.c_ml > 3.0 * a16.c_ml

    def test_t_eval_rejected_for_current_race_sensing(self):
        """A race array's window is its amp's cutoff: an explicit
        ``t_eval`` is an error rather than silently replaced."""
        cell = get_cell("fefet2t")
        with pytest.raises(TCAMError, match="t_eval applies to precharge"):
            TCAMArray(cell, ArrayGeometry(8, 8), sensing="current_race", t_eval=1e-9)
        race = TCAMArray(cell, ArrayGeometry(8, 8), sensing="current_race")
        assert race.t_eval == race.race_amp.cutoff_time(race.c_ml)
        assert TCAMArray(cell, ArrayGeometry(8, 8), t_eval=1e-9).t_eval == 1e-9

    def test_default_t_eval_is_twice_single_miss_crossing(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 16))
        from repro.circuits.matchline import MatchLine, MatchLineLoad

        load = MatchLineLoad(arr.c_ml, 1, 15, arr.cell.i_pulldown, arr.cell.i_leak)
        t_cross = MatchLine(load, 0.9, 0.9).time_to(arr.sense_amp.v_ref)
        assert arr.t_eval == pytest.approx(2.0 * t_cross, rel=1e-6)


class TestWritePath:
    def test_write_then_read_back(self):
        arr, _, _ = _loaded_array()
        w = word_from_string("10XX01XX10XX01XX")
        arr.write(3, w)
        assert arr.word_at(3) == w

    def test_write_marks_valid(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        assert not arr.valid_mask().any()
        arr.write(2, word_from_string("10101010"))
        assert arr.valid_mask()[2]

    def test_write_energy_booked_under_write(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        out = arr.write(0, word_from_string("10101010"))
        assert out.energy.get(EnergyComponent.WRITE) > 0.0
        assert out.energy.total == out.energy.get(EnergyComponent.WRITE)

    def test_rewrite_same_word_free_for_nonvolatile(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        w = word_from_string("1010XX10")
        arr.write(0, w)
        out = arr.write(0, w)
        assert out.cells_changed == 0
        assert out.energy.total == pytest.approx(0.0)

    def test_write_rejects_bad_row(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        with pytest.raises(TCAMError):
            arr.write(4, word_from_string("10101010"))

    def test_write_rejects_bad_width(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        with pytest.raises(TCAMError):
            arr.write(0, word_from_string("101"))

    def test_invalidate_removes_from_matches(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        w = word_from_string("10101010")
        arr.write(0, w)
        assert arr.search(w).first_match == 0
        arr.invalidate(0)
        assert arr.search(w).first_match is None

    def test_load_rejects_overflow(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(2, 8))
        words = [word_from_string("10101010")] * 3
        with pytest.raises(TCAMError):
            arr.load(words)


class TestSearchCorrectness:
    def test_search_finds_stored_word(self):
        arr, words, rng = _loaded_array(x_fraction=0.0)
        out = arr.search(words[5])
        assert out.match_mask[5]

    def test_search_agrees_with_software_reference(self, any_design):
        rng = np.random.default_rng(42)
        arr = build_array(any_design, ArrayGeometry(16, 24))
        words = [random_word(24, rng, x_fraction=0.3) for _ in range(16)]
        arr.load(words)
        for _ in range(10):
            key = random_word(24, rng)
            out = arr.search(key)
            expected = np.array([w.matches(key) for w in words])
            assert np.array_equal(out.match_mask, expected)
            assert out.functional_errors == 0

    def test_first_match_is_lowest_index(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        w = word_from_string("1010XXXX")
        arr.write(1, w)
        arr.write(3, w)
        out = arr.search(word_from_string("10101111"))
        assert out.first_match == 1
        assert out.match_mask[3]

    def test_all_x_key_matches_every_valid_row(self):
        arr, words, _ = _loaded_array()
        key = TernaryWord([Trit.X] * 16)
        out = arr.search(key)
        assert out.match_mask.all()

    def test_unwritten_rows_never_match(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(8, 8))
        arr.write(0, word_from_string("10101010"))
        out = arr.search(TernaryWord([Trit.X] * 8))
        assert out.match_mask[0]
        assert not out.match_mask[1:].any()

    def test_search_rejects_bad_width(self):
        arr, _, _ = _loaded_array()
        with pytest.raises(TCAMError):
            arr.search(word_from_string("101"))

    def test_miss_histogram_totals_valid_rows(self):
        arr, words, rng = _loaded_array(rows=10)
        out = arr.search(random_word(16, rng))
        assert sum(out.miss_histogram.values()) == 10

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_match_mask_matches_reference_property(self, seed):
        rng = np.random.default_rng(seed)
        arr = build_array(get_design("fefet2t"), ArrayGeometry(6, 12))
        words = [random_word(12, rng, x_fraction=0.4) for _ in range(6)]
        arr.load(words)
        key = random_word(12, rng, x_fraction=0.2)
        out = arr.search(key)
        expected = np.array([w.matches(key) for w in words])
        assert np.array_equal(out.match_mask, expected)


class TestSearchEnergy:
    def test_energy_positive_and_componentized(self):
        arr, words, rng = _loaded_array()
        out = arr.search(random_word(16, rng))
        assert out.energy_total > 0.0
        bd = out.energy.breakdown()
        assert EnergyComponent.ML_PRECHARGE.value in bd
        assert EnergyComponent.SEARCHLINE.value in bd

    def test_miss_dominated_costs_more_than_all_x(self):
        """A fully masked key discharges nothing."""
        arr, words, rng = _loaded_array()
        e_miss = arr.search(random_word(16, rng)).energy_total
        e_masked = arr.search(TernaryWord([Trit.X] * 16)).energy_total
        assert e_masked < e_miss

    def test_repeated_key_pays_no_sl_energy(self):
        arr, words, rng = _loaded_array()
        key = random_word(16, rng)
        arr.search(key)
        out2 = arr.search(key)
        assert out2.energy.get(EnergyComponent.SEARCHLINE) == 0.0

    def test_row_mask_reduces_ml_energy(self):
        arr, words, rng = _loaded_array(rows=16)
        key = random_word(16, rng)
        full = arr.search(key)
        mask = np.zeros(16, dtype=bool)
        mask[:4] = True
        partial = arr.search(key, row_mask=mask)
        assert partial.energy.get(EnergyComponent.ML_PRECHARGE) < 0.5 * full.energy.get(
            EnergyComponent.ML_PRECHARGE
        )

    def test_row_mask_blocks_matches_outside(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        w = word_from_string("10101010")
        arr.write(2, w)
        mask = np.array([True, True, False, False])
        out = arr.search(w, row_mask=mask)
        assert out.first_match is None

    def test_row_mask_shape_checked(self):
        arr, _, rng = _loaded_array()
        with pytest.raises(TCAMError):
            arr.search(random_word(16, rng), row_mask=np.ones(3, dtype=bool))

    def test_empty_batch_checks_row_mask(self):
        """A zero-key block still validates its mask; a good one gives []."""
        arr, _, _ = _loaded_array()
        no_keys = np.zeros((0, 16), dtype=np.int8)
        with pytest.raises(TCAMError, match="search_batch row_mask"):
            arr.search_batch(no_keys, row_mask=np.ones(3, dtype=bool))
        assert arr.search_batch(no_keys, row_mask=np.ones(arr.geometry.rows, bool)) == []

    def test_leakage_scales_with_cycle_time(self):
        arr, words, rng = _loaded_array()
        out = arr.search(random_word(16, rng))
        expected = arr.standby_power() * out.cycle_time
        assert out.energy.get(EnergyComponent.LEAKAGE) == pytest.approx(expected)


class TestTiming:
    def test_delay_components_positive(self):
        arr, words, rng = _loaded_array()
        out = arr.search(random_word(16, rng))
        assert out.search_delay > 0.0
        assert out.cycle_time >= out.search_delay - arr.encoder.delay

    def test_wider_array_slower(self):
        narrow = build_array(get_design("fefet2t"), ArrayGeometry(8, 16))
        wide = build_array(get_design("fefet2t"), ArrayGeometry(8, 128))
        assert wide.t_eval > narrow.t_eval

    def test_sense_margin_positive_for_all_precharge_designs(self, any_design):
        if any_design.sensing != "precharge":
            pytest.skip("margin applies to precharge sensing")
        arr = build_array(any_design, ArrayGeometry(8, 32))
        assert arr.sense_margin() > 0.05

    def test_sense_margin_rejected_for_race(self):
        arr = build_array(get_design("fefet_cr"), ArrayGeometry(8, 16))
        with pytest.raises(TCAMError):
            arr.sense_margin()


class TestNearestMatch:
    def test_finds_minimum_distance_row(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        arr.write(0, word_from_string("11111111"))
        arr.write(1, word_from_string("11110000"))
        arr.write(2, word_from_string("00000000"))
        out = arr.nearest_match(word_from_string("11111110"))
        assert out.row == 0
        assert out.distance == 1

    def test_exact_match_distance_zero(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        w = word_from_string("10101010")
        arr.write(2, w)
        out = arr.nearest_match(w)
        assert out.row == 2 and out.distance == 0

    def test_empty_array_returns_none(self):
        arr = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
        out = arr.nearest_match(word_from_string("10101010"))
        assert out.row is None

    def test_costs_at_least_as_much_as_exact_search(self):
        """Associative mode fully discharges every losing line, so on
        identical state it can never be cheaper than exact match."""
        arr_a, words, rng = _loaded_array(rows=16, x_fraction=0.0, seed=7)
        arr_b, _, _ = _loaded_array(rows=16, x_fraction=0.0, seed=7)
        key = random_word(16, rng)
        e_exact = arr_a.search(key).energy_total
        e_nearest = arr_b.nearest_match(key).energy.total
        assert e_nearest >= 0.95 * e_exact

    def test_rejected_for_race_sensing(self):
        arr = build_array(get_design("fefet_cr"), ArrayGeometry(4, 8))
        with pytest.raises(TCAMError):
            arr.nearest_match(word_from_string("10101010"))


class TestRaceSensingArray:
    def test_race_search_correct(self):
        arr, words, rng = _loaded_array(design="fefet_cr")
        for _ in range(5):
            key = random_word(16, rng)
            out = arr.search(key)
            expected = np.array([w.matches(key) for w in words])
            assert np.array_equal(out.match_mask, expected)

    def test_race_energy_booked_under_race_source(self):
        arr, words, rng = _loaded_array(design="fefet_cr")
        out = arr.search(random_word(16, rng))
        assert out.energy.get(EnergyComponent.RACE_SOURCE) > 0.0
        assert out.energy.get(EnergyComponent.ML_PRECHARGE) == 0.0
