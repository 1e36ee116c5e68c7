"""Tests for repro.devices.material."""

from __future__ import annotations

import math

import pytest

from repro.devices.material import HZO_10NM, FerroMaterial
from repro.errors import DeviceError
from repro.units import NANO


def _material(**overrides) -> FerroMaterial:
    base = dict(
        name="test",
        p_sat=0.25,
        p_rem=0.20,
        e_coercive=1.0e8,
        ec_sigma_rel=0.1,
        thickness=10 * NANO,
        eps_rel=30.0,
        tau0=1e-10,
        e_activation=2.2e8,
        merz_exponent=2.0,
        endurance_cycles=1e10,
    )
    base.update(overrides)
    return FerroMaterial(**base)


class TestValidation:
    def test_default_hzo_is_valid(self):
        assert HZO_10NM.p_rem == pytest.approx(0.20)

    def test_rejects_pr_above_psat(self):
        with pytest.raises(DeviceError):
            _material(p_rem=0.30, p_sat=0.25)

    def test_rejects_negative_polarization(self):
        with pytest.raises(DeviceError):
            _material(p_rem=-0.1)

    def test_rejects_zero_coercive_field(self):
        with pytest.raises(DeviceError):
            _material(e_coercive=0.0)

    def test_rejects_zero_thickness(self):
        with pytest.raises(DeviceError):
            _material(thickness=0.0)

    def test_rejects_sigma_out_of_range(self):
        with pytest.raises(DeviceError):
            _material(ec_sigma_rel=1.0)


class TestDerivedQuantities:
    def test_coercive_voltage_is_field_times_thickness(self):
        m = _material()
        assert m.v_coercive == pytest.approx(1.0e8 * 10 * NANO)  # 1.0 V

    def test_hzo_coercive_voltage_about_one_volt(self):
        assert HZO_10NM.v_coercive == pytest.approx(1.0, rel=0.01)

    def test_field_conversion(self):
        m = _material()
        assert m.field(1.0) == pytest.approx(1.0 / (10 * NANO))


class TestMerzSwitching:
    def test_strong_field_switches_fast(self):
        m = _material()
        t_fast = m.switching_time(4.0e8)
        assert t_fast < 1e-6

    def test_switching_time_monotone_in_field(self):
        m = _material()
        fields = [1.5e8, 2.0e8, 3.0e8, 4.0e8]
        times = [m.switching_time(f) for f in fields]
        assert times == sorted(times, reverse=True)

    def test_zero_field_never_switches(self):
        assert _material().switching_time(0.0) == math.inf

    def test_tiny_field_overflows_to_infinity(self):
        assert _material().switching_time(1.0) == math.inf

    def test_sign_of_field_irrelevant(self):
        m = _material()
        assert m.switching_time(-3.0e8) == pytest.approx(m.switching_time(3.0e8))
