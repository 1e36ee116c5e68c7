"""Tests for the ReRAM element."""

from __future__ import annotations

import pytest

from repro.devices.resistive import ReRAM, ReRAMParams, ReRAMState
from repro.errors import DeviceError


class TestParams:
    def test_default_ratio(self):
        p = ReRAMParams()
        assert p.on_off_ratio == pytest.approx(100.0)

    def test_rejects_hrs_below_lrs(self):
        with pytest.raises(DeviceError):
            ReRAMParams(r_lrs=1e6, r_hrs=1e3)

    def test_rejects_negative_resistance(self):
        with pytest.raises(DeviceError):
            ReRAMParams(r_lrs=-1.0)


class TestStateMachine:
    def test_powers_on_in_hrs(self):
        assert ReRAM().state is ReRAMState.HRS

    def test_resistance_follows_state(self):
        r = ReRAM()
        assert r.resistance == pytest.approx(r.params.r_hrs)
        r.write(ReRAMState.LRS)
        assert r.resistance == pytest.approx(r.params.r_lrs)

    def test_conductance_inverse(self):
        r = ReRAM()
        assert r.conductance() == pytest.approx(1.0 / r.resistance)


class TestWrite:
    def test_set_consumes_energy(self):
        r = ReRAM()
        e = r.write(ReRAMState.LRS)
        assert e > 0.0
        assert r.state is ReRAMState.LRS

    def test_rewrite_same_state_free(self):
        r = ReRAM()
        r.write(ReRAMState.LRS)
        assert r.write(ReRAMState.LRS) == 0.0

    def test_reset_costs_more_than_set(self):
        """RESET drives current through the low-resistance state."""
        r = ReRAM()
        e_set = r.write(ReRAMState.LRS)
        e_reset = r.write(ReRAMState.HRS)
        assert e_reset > e_set

    def test_write_energy_picojoule_scale(self):
        r = ReRAM()
        e = r.write(ReRAMState.LRS)
        assert 1e-16 < e < 1e-9
