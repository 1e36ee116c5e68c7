"""Tests for repro.units."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.units import (
    FEMTO,
    NANO,
    PICO,
    celsius_to_kelvin,
    eng,
    parallel,
    thermal_voltage,
)


class TestThermalVoltage:
    def test_room_temperature_value(self):
        assert thermal_voltage(300.0) == pytest.approx(0.025852, rel=1e-3)

    def test_scales_linearly_with_temperature(self):
        assert thermal_voltage(600.0) == pytest.approx(2 * thermal_voltage(300.0))

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            thermal_voltage(0.0)
        with pytest.raises(ValueError):
            thermal_voltage(-10.0)


class TestEng:
    def test_femto(self):
        assert eng(1.5 * FEMTO, "F") == "1.5 fF"

    def test_pico_negative(self):
        assert eng(-2.2 * PICO, "s") == "-2.2 ps"

    def test_zero(self):
        assert eng(0.0, "J") == "0 J"

    def test_unitless(self):
        assert eng(2.5 * NANO) == "2.5 n"

    def test_large_values_clamp_at_tera(self):
        assert "T" in eng(5e14, "Hz")

    def test_infinity_passes_through(self):
        assert "inf" in eng(math.inf, "s")

    @given(st.floats(min_value=1e-17, max_value=1e13))
    def test_output_parses_back_to_same_magnitude(self, value):
        text = eng(value, "")
        number = float(text.split()[0]) if " " in text else float(text.rstrip("afpnumkMGT "))
        prefix_scale = {
            "a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6,
            "m": 1e-3, "": 1.0, "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
        }
        parts = text.split()
        scale = prefix_scale[parts[1]] if len(parts) > 1 else 1.0
        # Three significant digits round by at most half a unit in the
        # third digit: 0.5% of the value.
        assert number * scale == pytest.approx(value, rel=5e-3 + 1e-12)


class TestParallel:
    def test_two_equal(self):
        assert parallel(2.0, 2.0) == pytest.approx(1.0)

    def test_infinite_branch_ignored(self):
        assert parallel(5.0, math.inf) == pytest.approx(5.0)

    def test_short_circuit_wins(self):
        assert parallel(5.0, 0.0) == 0.0

    def test_all_infinite_is_infinite(self):
        assert parallel(math.inf, math.inf) == math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parallel(-1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parallel()

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=6))
    def test_result_below_minimum_branch(self, rs):
        assert parallel(*rs) <= min(rs) * (1.0 + 1e-9)


class TestCelsius:
    def test_room(self):
        assert celsius_to_kelvin(25.0) == pytest.approx(298.15)

    def test_below_absolute_zero_rejected(self):
        with pytest.raises(ValueError):
            celsius_to_kelvin(-300.0)
