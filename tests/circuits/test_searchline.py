"""Tests for the search-line model."""

from __future__ import annotations

import pytest

from repro.circuits.searchline import SearchLine, count_toggles
from repro.circuits.wire import M4_WIRE
from repro.errors import CircuitError
from repro.tcam.trit import Trit, drive_vector, word_from_string


def _line(rows: int = 64) -> SearchLine:
    return SearchLine(
        n_rows=rows,
        c_gate_per_cell=0.05e-15,
        cell_pitch=0.3e-6,
        wire=M4_WIRE,
    )


class TestGeometry:
    def test_length(self):
        assert _line(64).length == pytest.approx(64 * 0.3e-6)

    def test_capacitance_scales_with_rows(self):
        c64 = _line(64).capacitance_single
        c128 = _line(128).capacitance_single
        assert c128 > 1.8 * c64

    def test_rejects_zero_rows(self):
        with pytest.raises(CircuitError):
            _line(0)

    def test_rejects_bad_pitch(self):
        with pytest.raises(CircuitError):
            SearchLine(n_rows=4, c_gate_per_cell=1e-16, cell_pitch=0.0, wire=M4_WIRE)


class TestEnergy:
    def test_toggle_energy_cv2(self):
        line = _line()
        assert line.toggle_energy(0.9) == pytest.approx(
            line.capacitance_single * 0.81
        )

    def test_toggle_energy_rejects_bad_vdd(self):
        with pytest.raises(CircuitError):
            _line().toggle_energy(0.0)


class TestToggleCounting:
    def test_identical_keys_no_toggles(self):
        d = drive_vector(word_from_string("0101"))
        assert count_toggles(d, d) == 0

    def test_complement_key_toggles_both_lines_per_column(self):
        d1 = drive_vector(word_from_string("0000"))
        d2 = drive_vector(word_from_string("1111"))
        assert count_toggles(d1, d2) == 8

    def test_x_column_releases_one_line(self):
        d1 = drive_vector(word_from_string("0"))
        d2 = drive_vector(word_from_string("X"))
        assert count_toggles(d1, d2) == 1

    def test_from_idle_all_low(self):
        idle = (0,) * 4
        d = drive_vector(word_from_string("01X1"))
        # 0 -> SL high (1 toggle), 1 -> SLB high (1), X -> none, 1 -> (1)
        assert count_toggles(idle, d) == 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(CircuitError):
            count_toggles((0, 0), (0,))

    def test_delay_positive(self):
        assert _line().settle_delay(2e3) > 0.0

    def test_delay_rejects_bad_driver(self):
        with pytest.raises(CircuitError):
            _line().settle_delay(0.0)


class TestDriveConvention:
    def test_search_zero_raises_sl(self):
        from repro.tcam.trit import sl_drive

        assert sl_drive(Trit.ZERO) == (1, 0)
        assert sl_drive(Trit.ONE) == (0, 1)
        assert sl_drive(Trit.X) == (0, 0)
