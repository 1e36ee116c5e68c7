"""Tests for the temperature scaling model."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.devices.fefet import FeFETParams
from repro.devices.mosfet import MOSFET, ekv_current, nmos_45nm
from repro.devices.temperature import TemperatureModel
from repro.errors import DeviceError
from repro.units import thermal_voltage


class TestScalings:
    def test_reference_temperature_is_identity(self):
        tm = TemperatureModel()
        assert tm.vt_shift(tm.t_ref) == 0.0
        assert tm.kp_scale(tm.t_ref) == pytest.approx(1.0)
        assert tm.window_scale(tm.t_ref) == pytest.approx(1.0)

    def test_vt_decreases_when_hot(self):
        tm = TemperatureModel()
        assert tm.vt_shift(400.0) < 0.0

    def test_mobility_degrades_when_hot(self):
        tm = TemperatureModel()
        assert tm.kp_scale(400.0) < 1.0

    def test_window_shrinks_when_hot(self):
        tm = TemperatureModel()
        assert tm.window_scale(400.0) < 1.0

    def test_window_floor(self):
        tm = TemperatureModel(window_dt_rel=-0.1)
        assert tm.window_scale(5000.0) == pytest.approx(0.1)

    def test_rejects_non_positive_temperature(self):
        tm = TemperatureModel()
        with pytest.raises(DeviceError):
            tm.vt_shift(0.0)

    def test_rejects_bad_reference(self):
        with pytest.raises(DeviceError):
            TemperatureModel(t_ref=-1.0)


def _current(params, temperature_k: float, vgs: float, vds: float) -> float:
    """EKV drain current of ``params`` with the thermal voltage of
    ``temperature_k`` (the :class:`MOSFET` instance runs at 300 K)."""
    beta = params.kp * params.width / params.length
    return ekv_current(
        vgs, vds, params.vt0, beta, params.n_slope,
        thermal_voltage(temperature_k), params.lambda_cl,
    )


def _hot_nmos(tm: TemperatureModel, temperature_k: float):
    """The 45 nm NMOS with its VT and kp moved to ``temperature_k``."""
    base = nmos_45nm()
    return replace(
        base,
        vt0=base.vt0 + tm.vt_shift(temperature_k),
        kp=base.kp * tm.kp_scale(temperature_k),
    )


class TestDeviceRescaling:
    def test_fefet_at_hot_corner(self):
        tm = TemperatureModel()
        base = FeFETParams()
        hot = tm.fefet_at(base, 398.15)
        assert hot.vt_mid < base.vt_mid
        assert hot.memory_window < base.memory_window

    def test_hot_mosfet_leaks_more(self):
        """Combined VT shift + EKV thermal voltage: leakage rises with T."""
        tm = TemperatureModel()
        cold = _current(nmos_45nm(), 300.0, 0.0, 0.9)
        hot = _current(_hot_nmos(tm, 398.15), 398.15, 0.0, 0.9)
        assert cold == MOSFET(nmos_45nm()).off_current(0.9)
        assert hot > 10.0 * cold

    def test_hot_mosfet_drives_less(self):
        tm = TemperatureModel()
        cold = _current(nmos_45nm(), 300.0, 0.9, 0.9)
        hot = _current(_hot_nmos(tm, 398.15), 398.15, 0.9, 0.9)
        assert hot < cold
