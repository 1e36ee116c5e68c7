"""Tests for the behavioral FeFET."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.fefet import FeFET, FeFETParams, FeFETState
from repro.devices.preisach import SwitchingPulse
from repro.errors import DeviceError


class TestStateAndThreshold:
    def test_powers_on_in_hvt(self):
        f = FeFET()
        assert f.state is FeFETState.HVT
        assert f.vt == pytest.approx(f.params.vt_hvt)

    def test_vt_window_endpoints(self):
        p = FeFETParams()
        assert p.vt_hvt - p.vt_lvt == pytest.approx(p.memory_window)

    def test_force_state_moves_vt(self):
        f = FeFET()
        f.force_state(FeFETState.LVT)
        assert f.vt == pytest.approx(f.params.vt_lvt)

    def test_rejects_zero_window(self):
        with pytest.raises(DeviceError):
            FeFETParams(memory_window=0.0)

    def test_rejects_program_voltage_below_coercive(self):
        with pytest.raises(DeviceError):
            FeFETParams(program_voltage=0.5)

    def test_target_polarization_mapping(self):
        assert FeFETState.LVT.target_polarization() == 1.0
        assert FeFETState.HVT.target_polarization() == -1.0


class TestIV:
    def test_lvt_conducts_hvt_does_not(self):
        f = FeFET()
        f.force_state(FeFETState.LVT)
        i_on = f.current(0.9, 0.1)
        f.force_state(FeFETState.HVT)
        i_off = f.current(0.9, 0.1)
        assert i_on > 1e4 * i_off

    def test_on_off_ratio_large_and_state_preserving(self):
        f = FeFET()
        f.force_state(FeFETState.LVT)
        ratio = f.on_off_ratio(0.9, 0.1)
        assert ratio > 1e5
        assert f.state is FeFETState.LVT  # restored

    def test_butterfly_curves_ordered(self):
        f = FeFET()
        vgs = np.linspace(0.0, 2.0, 30)
        id_lvt, id_hvt = f.butterfly_curves(vgs, 0.1)
        assert np.all(id_lvt >= id_hvt)

    def test_butterfly_restores_state(self):
        f = FeFET()
        f.force_state(FeFETState.LVT)
        f.butterfly_curves(np.linspace(0, 1, 5), 0.1)
        assert f.state is FeFETState.LVT

    def test_capacitances_positive(self):
        f = FeFET()
        assert f.gate_capacitance > 0.0
        assert f.junction_capacitance > 0.0


class TestWrite:
    def test_nominal_write_flips_state(self):
        f = FeFET()
        result = f.write(FeFETState.LVT)
        assert f.state is FeFETState.LVT
        assert result.polarization_after == pytest.approx(1.0)

    def test_write_energy_femtojoule_scale(self):
        f = FeFET()
        result = f.write(FeFETState.LVT)
        assert 1e-16 < result.energy < 1e-13

    def test_write_to_same_state_moves_no_charge(self):
        f = FeFET()
        f.write(FeFETState.LVT)
        second = f.write(FeFETState.LVT)
        assert second.switched_charge == pytest.approx(0.0)

    def test_write_latency_is_pulse_width(self):
        f = FeFET()
        result = f.write(FeFETState.HVT)
        assert result.latency == pytest.approx(f.params.program_width)

    def test_nominal_write_energy_analytic_close_to_simulated(self):
        f = FeFET()
        simulated = f.write(FeFETState.LVT).energy
        analytic = f.nominal_write_energy(FeFETState.LVT)
        assert simulated == pytest.approx(analytic, rel=0.05)

    def test_partial_pulse_partially_switches(self):
        """An intermediate pulse flips only the low-coercive-field domains."""
        f = FeFET()
        f.apply_write_pulse(SwitchingPulse(2.6, 20e-9), stochastic=False)
        assert -1.0 < f.polarization < 1.0

    def test_weak_disturb_pulse_is_harmless(self):
        """A 1.8 V / 1 ns half-select disturb must not move the state."""
        f = FeFET()
        f.apply_write_pulse(SwitchingPulse(1.8, 1e-9), stochastic=False)
        assert f.polarization == pytest.approx(-1.0)

    def test_write_deterministic_vs_stochastic_seeded(self):
        f1 = FeFET()
        f2 = FeFET()
        r1 = f1.write(FeFETState.LVT, stochastic=True)
        r2 = f2.write(FeFETState.LVT, stochastic=True)
        assert r1.polarization_after == r2.polarization_after


class TestGeometry:
    def test_scaled_width_changes_current(self):
        wide = FeFET(FeFETParams().scaled(180e-9))
        narrow = FeFET(FeFETParams().scaled(90e-9))
        wide.force_state(FeFETState.LVT)
        narrow.force_state(FeFETState.LVT)
        assert wide.current(0.9, 0.1) == pytest.approx(
            2.0 * narrow.current(0.9, 0.1), rel=1e-6
        )

    def test_rejects_zero_width(self):
        with pytest.raises(DeviceError):
            FeFETParams(width=0.0)
