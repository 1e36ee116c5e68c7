"""Tests for the RC transient primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.rc import (
    RCLine,
    charge_energy,
    discharge_time,
    discharge_waveform,
    elmore_delay,
    rc_step_response,
    rc_time_to_reach,
)
from repro.errors import CircuitError


class TestStepResponse:
    def test_one_tau_point(self):
        v = rc_step_response(1e3, 1e-12, 0.0, 1.0, 1e-9)
        assert v == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    def test_t_zero_is_start(self):
        assert rc_step_response(1e3, 1e-12, 0.3, 1.0, 0.0) == pytest.approx(0.3)

    def test_long_time_reaches_end(self):
        assert rc_step_response(1e3, 1e-12, 0.0, 1.0, 1e-6) == pytest.approx(1.0)

    def test_discharge_direction(self):
        v = rc_step_response(1e3, 1e-12, 1.0, 0.0, 1e-9)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_rejects_bad_rc(self):
        with pytest.raises(CircuitError):
            rc_step_response(0.0, 1e-12, 0.0, 1.0, 1e-9)

    def test_rejects_negative_time(self):
        with pytest.raises(CircuitError):
            rc_step_response(1e3, 1e-12, 0.0, 1.0, -1e-9)


class TestTimeToReach:
    def test_inverse_of_step_response(self):
        r, c = 2e3, 3e-12
        t = rc_time_to_reach(r, c, 0.0, 1.0, 0.9)
        assert rc_step_response(r, c, 0.0, 1.0, t) == pytest.approx(0.9, rel=1e-9)

    def test_target_equal_start_is_zero_time(self):
        assert rc_time_to_reach(1e3, 1e-12, 0.2, 1.0, 0.2) == pytest.approx(0.0)

    def test_rejects_unreachable_target(self):
        with pytest.raises(CircuitError):
            rc_time_to_reach(1e3, 1e-12, 0.0, 1.0, 1.5)

    def test_rejects_degenerate_drive(self):
        with pytest.raises(CircuitError):
            rc_time_to_reach(1e3, 1e-12, 1.0, 1.0, 1.0)


class TestElmore:
    def test_distributed_vs_lumped_factors(self):
        assert elmore_delay(1e3, 1e-12) == pytest.approx(0.38e-9)
        assert elmore_delay(1e3, 1e-12, distributed=False) == pytest.approx(0.69e-9)

    def test_rejects_negative(self):
        with pytest.raises(CircuitError):
            elmore_delay(-1.0, 1e-12)


class TestRCLine:
    def test_delay_positive_and_monotone_in_load(self):
        small = RCLine(1e3, 500.0, 2e-15, 1e-15)
        large = RCLine(1e3, 500.0, 2e-15, 10e-15)
        assert 0.0 < small.delay_50pct() < large.delay_50pct()

    def test_total_capacitance(self):
        line = RCLine(1e3, 500.0, 2e-15, 1e-15)
        assert line.total_capacitance == pytest.approx(3e-15)

    def test_settle_time_exceeds_delay(self):
        line = RCLine(1e3, 500.0, 2e-15, 1e-15)
        assert line.settle_time() > line.delay_50pct()

    def test_rejects_zero_driver(self):
        with pytest.raises(CircuitError):
            RCLine(0.0, 500.0, 2e-15, 1e-15)


class TestDischargeTime:
    def test_constant_current_analytic(self):
        """Constant-current discharge: t = C * dV / I exactly."""
        c, i = 10e-15, 5e-6
        t = discharge_time(c, lambda v: i, 0.9, 0.45)
        assert t == pytest.approx(c * 0.45 / i, rel=1e-6)

    def test_resistor_discharge_matches_log(self):
        """Ohmic discharge: t = RC ln(v0/v1)."""
        r, c = 50e3, 10e-15
        t = discharge_time(c, lambda v: v / r, 0.9, 0.45)
        assert t == pytest.approx(r * c * math.log(2.0), rel=1e-3)

    def test_zero_current_never_reaches(self):
        t = discharge_time(1e-15, lambda v: 0.0, 0.9, 0.45)
        assert t == math.inf

    def test_rejects_inverted_bounds(self):
        with pytest.raises(CircuitError):
            discharge_time(1e-15, lambda v: 1e-6, 0.45, 0.9)

    def test_rejects_bad_capacitance(self):
        with pytest.raises(CircuitError):
            discharge_time(0.0, lambda v: 1e-6, 0.9, 0.45)

    @given(
        c=st.floats(min_value=1e-16, max_value=1e-13),
        i=st.floats(min_value=1e-7, max_value=1e-4),
    )
    @settings(max_examples=30, deadline=None)
    def test_scales_linearly_with_c_over_i(self, c, i):
        t = discharge_time(c, lambda v: i, 0.9, 0.45)
        assert t == pytest.approx(c * 0.45 / i, rel=1e-6)


class TestDischargeWaveform:
    def test_matches_exponential_for_ohmic_load(self):
        r, c = 50e3, 10e-15
        tau = r * c
        t = np.linspace(0.0, 3 * tau, 200)
        v = discharge_waveform(c, lambda vv: vv / r, 0.9, t)
        expected = 0.9 * np.exp(-t / tau)
        assert np.allclose(v, expected, rtol=1e-3)

    def test_monotone_nonincreasing(self):
        t = np.linspace(0.0, 1e-9, 100)
        v = discharge_waveform(5e-15, lambda vv: 1e-5, 0.9, t)
        assert np.all(np.diff(v) <= 1e-12)

    def test_clamps_at_floor(self):
        t = np.linspace(0.0, 1e-6, 50)
        v = discharge_waveform(1e-16, lambda vv: 1e-4, 0.9, t)
        assert v[-1] >= 0.0

    def test_rejects_bad_grid(self):
        with pytest.raises(CircuitError):
            discharge_waveform(1e-15, lambda vv: 1e-6, 0.9, np.array([1e-9, 0.0]))

    def test_crossing_time_consistent_with_discharge_time(self):
        """The two solvers agree on when the waveform crosses a threshold."""
        c = 8e-15

        def current(v: float) -> float:
            return 2e-6 * np.maximum(v, 0.0) / 0.9 + 1e-6

        t_cross = discharge_time(c, current, 0.9, 0.45)
        t = np.linspace(0.0, 2 * t_cross, 400)
        v = discharge_waveform(c, current, 0.9, t)
        idx = int(np.argmax(v <= 0.45))
        assert t[idx] == pytest.approx(t_cross, rel=0.02)


class TestChargeEnergy:
    def test_full_swing(self):
        assert charge_energy(1e-15, 0.9, 0.9) == pytest.approx(0.81e-15)

    def test_partial_swing_linear(self):
        assert charge_energy(1e-15, 0.45, 0.9) == pytest.approx(0.405e-15)

    def test_zero_cases(self):
        assert charge_energy(0.0, 0.9, 0.9) == 0.0
        assert charge_energy(1e-15, 0.0, 0.9) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(CircuitError):
            charge_energy(-1e-15, 0.9, 0.9)
