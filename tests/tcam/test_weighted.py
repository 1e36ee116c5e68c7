"""Tests for the MLC cell and the weighted-distance (analog) array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TCAMError
from repro.tcam import ArrayGeometry, random_word, word_from_string
from repro.tcam.cells.fefet_mlc import MLCFeFETCell, MLCFeFETCellParams
from repro.tcam.weighted import WeightedTCAMArray


class TestMLCCell:
    def test_level_currents_monotone(self):
        cell = MLCFeFETCell()
        currents = [cell.i_pulldown_level(0.9, w) for w in range(1, 5)]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_calibrated_levels_give_equal_current_steps(self):
        cell = MLCFeFETCell(MLCFeFETCellParams(n_levels=4, calibrated=True))
        currents = [cell.i_pulldown_level(0.9, w) for w in range(1, 5)]
        for w, i in enumerate(currents, start=1):
            assert i == pytest.approx(currents[-1] * w / 4, rel=0.02)

    def test_uncalibrated_levels_superlinear(self):
        cell = MLCFeFETCell(MLCFeFETCellParams(n_levels=4, calibrated=False))
        currents = [cell.i_pulldown_level(0.9, w) for w in range(1, 5)]
        # Quadratic-ish overdrive: level 2 carries less than half of level 4.
        assert currents[1] < 0.5 * currents[3]

    def test_top_level_matches_binary_cell(self):
        from repro.tcam.cells import FeFET2TCell

        mlc = MLCFeFETCell()
        binary = FeFET2TCell()
        assert mlc.i_pulldown_level(0.9, mlc.n_levels) == pytest.approx(
            binary.i_pulldown(0.9), rel=1e-9
        )

    def test_vt_decreases_with_level(self):
        cell = MLCFeFETCell()
        vts = [cell.vt_at_level(w) for w in range(1, 5)]
        assert all(b < a for a, b in zip(vts, vts[1:]))

    def test_rejects_bad_level(self):
        cell = MLCFeFETCell()
        with pytest.raises(TCAMError):
            cell.i_pulldown_level(0.9, 0)
        with pytest.raises(TCAMError):
            cell.vt_at_level(5)

    def test_rejects_bad_params(self):
        with pytest.raises(TCAMError):
            MLCFeFETCellParams(n_levels=1)

    def test_shares_binary_capacitances(self):
        from repro.tcam.cells import FeFET2TCell

        mlc = MLCFeFETCell()
        binary = FeFET2TCell()
        assert mlc.c_ml_per_cell == binary.c_ml_per_cell
        assert mlc.area_f2 == binary.area_f2


class TestWeightedArray:
    def _loaded(self, rows=12, cols=24, seed=0):
        rng = np.random.default_rng(seed)
        arr = WeightedTCAMArray(ArrayGeometry(rows, cols))
        for r in range(rows):
            arr.write(r, random_word(cols, rng), rng.integers(1, 5, size=cols))
        return arr, rng

    def test_oracle_distance_definition(self):
        arr = WeightedTCAMArray(ArrayGeometry(2, 4))
        arr.write(0, word_from_string("1010"), np.array([4, 3, 2, 1]))
        key = word_from_string("0010")  # mismatch only at column 0
        assert arr.weighted_distance(0, key) == 4

    def test_x_columns_carry_no_weight(self):
        arr = WeightedTCAMArray(ArrayGeometry(1, 4))
        arr.write(0, word_from_string("1X10"), np.array([4, 4, 4, 4]))
        key = word_from_string("0110")
        assert arr.weighted_distance(0, key) == 4  # only column 0 counts

    def test_best_row_has_minimum_distance(self):
        """The winner must be *a* minimum-distance row; ties between rows
        at the same weighted distance are physically indistinguishable in
        the time domain (their leak ensembles differ by femtoseconds)."""
        arr, rng = self._loaded()
        for _ in range(6):
            key = random_word(24, rng)
            out = arr.distance_search(key)
            assert out.distances[out.best_row] == out.distances.min()

    def test_distances_equal_software_oracle(self):
        arr, rng = self._loaded(seed=3)
        for _ in range(4):
            key = random_word(24, rng)
            out = arr.distance_search(key)
            expected = [arr.weighted_distance(r, key) for r in range(12)]
            assert out.distances.tolist() == expected

    def test_crossing_times_rank_distances(self):
        import scipy.stats as st

        arr, rng = self._loaded(seed=5)
        key = random_word(24, rng)
        out = arr.distance_search(key)
        mask = np.isfinite(out.crossing_times)
        rho = st.spearmanr(out.crossing_times[mask], -out.distances[mask]).statistic
        assert rho > 0.98

    def test_exact_match_row_never_crosses(self):
        rng = np.random.default_rng(2)
        arr = WeightedTCAMArray(ArrayGeometry(3, 16))
        words = [random_word(16, rng) for _ in range(3)]
        for r, w in enumerate(words):
            arr.write(r, w, np.full(16, 4))
        out = arr.distance_search(words[1])
        assert out.crossing_times[1] == np.inf
        assert out.best_row == 1

    def test_energy_positive_and_componentized(self):
        arr, rng = self._loaded()
        out = arr.distance_search(random_word(24, rng))
        from repro.energy import EnergyComponent

        assert out.energy.get(EnergyComponent.ML_PRECHARGE) > 0.0
        assert out.energy.total > 0.0

    def test_write_validates_weights(self):
        arr = WeightedTCAMArray(ArrayGeometry(2, 4))
        with pytest.raises(TCAMError):
            arr.write(0, word_from_string("1010"), np.array([0, 1, 2, 3]))
        with pytest.raises(TCAMError):
            arr.write(0, word_from_string("1010"), np.array([1, 2, 3]))

    def test_invalid_rows_excluded(self):
        arr = WeightedTCAMArray(ArrayGeometry(4, 8))
        arr.write(2, word_from_string("10101010"), np.full(8, 2))
        out = arr.distance_search(word_from_string("10101010"))
        assert out.best_row == 2
        assert np.isinf(out.crossing_times[0])

    def test_rejects_bad_key_width(self):
        arr = WeightedTCAMArray(ArrayGeometry(2, 8))
        with pytest.raises(TCAMError):
            arr.distance_search(word_from_string("101"))

    def test_trit_code_keys(self):
        """A row of trit codes is a key; a bad width or code raises TCAMError."""
        arr = WeightedTCAMArray(ArrayGeometry(2, 8))
        arr.write(0, word_from_string("10101010"), np.full(8, 2))
        word = word_from_string("10X01110")
        codes = np.array(word.as_array())
        by_word, by_codes = arr.distance_search(word), arr.distance_search(codes)
        assert np.array_equal(by_codes.crossing_times, by_word.crossing_times)
        assert np.array_equal(by_codes.distances, by_word.distances)
        assert arr.weighted_distance(0, codes) == arr.weighted_distance(0, word) == 2
        assert arr.weighted_distance(0, np.zeros(8, np.int8)) == 8
        assert arr.distance_search(np.zeros(8, np.int8)).distances[0] == 8
        for bad in (np.zeros(7, np.int8), np.full(8, 3, np.int8)):
            with pytest.raises(TCAMError, match="distance_search"):
                arr.distance_search(bad)
            with pytest.raises(TCAMError, match="weighted_distance"):
                arr.weighted_distance(0, bad)
