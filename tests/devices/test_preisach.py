"""Tests for the Preisach hysteresis model, including the two classical
Preisach properties (wiping-out and congruency) as hypothesis checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.material import HZO_10NM
from repro.devices.preisach import (
    Hysteron,
    PreisachModel,
    SwitchingPulse,
    loop_coercive_voltage,
    saturation_loop,
)
from repro.errors import DeviceError


def _model(n_domains=64, seed=0) -> PreisachModel:
    return PreisachModel(HZO_10NM, n_domains=n_domains, rng=np.random.default_rng(seed))


class TestHysteron:
    def test_switches_up_at_threshold(self):
        h = Hysteron(ec=1.0)
        assert h.apply(1.0) == 1

    def test_switches_down_at_negative_threshold(self):
        h = Hysteron(ec=1.0, state=1)
        assert h.apply(-1.0) == -1

    def test_holds_state_between_thresholds(self):
        h = Hysteron(ec=1.0, state=1)
        assert h.apply(0.5) == 1
        assert h.apply(-0.5) == 1

    def test_imprint_shifts_thresholds(self):
        h = Hysteron(ec=1.0, imprint=0.5)
        assert h.apply(1.2) == -1  # effective 0.7 < ec
        assert h.apply(1.6) == 1

    def test_rejects_non_positive_ec(self):
        with pytest.raises(DeviceError):
            Hysteron(ec=0.0).apply(1.0)

    def test_ensemble_field_response_is_one_hysteron_per_domain(self):
        """PreisachModel.apply_field is the scalar hysteron rule, vectorized."""
        ec = HZO_10NM.e_coercive
        model = PreisachModel(HZO_10NM, n_domains=48, rng=np.random.default_rng(5))
        domains = [Hysteron(ec=float(e)) for e in model._ec]
        for field in (0.5, 1.2, -0.8, -1.5, 0.9, 0.0, 2.0, -1.0, 1.05):
            states = [h.apply(field * ec) for h in domains]
            assert model.apply_field(field * ec) == np.mean(states)


class TestQuasiStatic:
    def test_initial_state_is_negative_saturation(self):
        assert _model().normalized_polarization == pytest.approx(-1.0)

    def test_saturate_positive(self):
        m = _model()
        m.saturate(1)
        assert m.normalized_polarization == pytest.approx(1.0)

    def test_saturate_rejects_bad_direction(self):
        with pytest.raises(DeviceError):
            _model().saturate(0)

    def test_polarization_bounded(self):
        m = _model()
        for v in np.linspace(-4, 4, 50):
            m.apply_voltage(float(v))
            assert -1.0 <= m.normalized_polarization <= 1.0

    def test_remanence_after_saturating_pulse(self):
        m = _model()
        m.apply_voltage(4.0)
        m.apply_voltage(0.0)
        assert m.polarization == pytest.approx(HZO_10NM.p_rem, rel=1e-6)

    def test_zero_field_changes_nothing(self):
        m = _model()
        m.apply_voltage(1.2)
        before = m.normalized_polarization
        m.apply_voltage(0.0)
        assert m.normalized_polarization == before

    def test_set_normalized_polarization_roundtrip(self):
        m = _model(n_domains=100)
        m.set_normalized_polarization(0.5)
        assert m.normalized_polarization == pytest.approx(0.5, abs=0.02)

    def test_set_normalized_rejects_out_of_range(self):
        with pytest.raises(DeviceError):
            _model().set_normalized_polarization(1.5)

    def test_rejects_zero_domains(self):
        with pytest.raises(DeviceError):
            PreisachModel(HZO_10NM, n_domains=0)


class TestPreisachProperties:
    """The two defining properties of any Preisach operator."""

    @given(
        peak=st.floats(min_value=1.2, max_value=2.5),
        minor=st.floats(min_value=0.3, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_wiping_out(self, peak, minor):
        """A larger subsequent extremum erases the memory of smaller ones."""
        m1 = _model(seed=5)
        m1.apply_voltage(peak)
        m1.apply_voltage(-minor)
        m1.apply_voltage(peak + 0.5)  # wipes out the minor excursion
        p1 = m1.normalized_polarization

        m2 = _model(seed=5)
        m2.apply_voltage(peak + 0.5)
        assert m2.normalized_polarization == pytest.approx(p1)

    @given(
        lo=st.floats(min_value=-1.0, max_value=-0.3),
        hi=st.floats(min_value=0.3, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_congruency(self, lo, hi):
        """Minor loops between the same reversal voltages have equal height
        regardless of history."""
        m1 = _model(seed=9)
        m1.apply_voltage(2.5)  # arrive from positive saturation
        m1.apply_voltage(lo)
        p1_bottom = m1.normalized_polarization
        m1.apply_voltage(hi)
        height1 = m1.normalized_polarization - p1_bottom

        m2 = _model(seed=9)
        m2.apply_voltage(-2.5)  # arrive from negative saturation
        m2.apply_voltage(hi)
        m2.apply_voltage(lo)
        p2_bottom = m2.normalized_polarization
        m2.apply_voltage(hi)
        height2 = m2.normalized_polarization - p2_bottom

        assert height1 == pytest.approx(height2, abs=1e-9)

    def test_return_point_memory(self):
        """Closing a minor loop returns exactly to the turning point."""
        m = _model(seed=3)
        m.apply_voltage(2.0)
        m.apply_voltage(-0.8)
        p_turn = m.normalized_polarization
        m.apply_voltage(0.5)
        m.apply_voltage(-0.8)
        assert m.normalized_polarization == pytest.approx(p_turn)


class TestPulseSwitching:
    def test_long_strong_pulse_fully_switches(self):
        m = _model()
        m.apply_pulse(SwitchingPulse(4.0, 1e-6), stochastic=False)
        assert m.normalized_polarization == pytest.approx(1.0)

    def test_short_weak_pulse_switches_little(self):
        m = _model()
        m.apply_pulse(SwitchingPulse(1.2, 1e-12), stochastic=False)
        assert m.normalized_polarization < -0.8

    def test_pulse_width_monotonicity(self):
        widths = [1e-9, 1e-8, 1e-7, 1e-6]
        results = []
        for w in widths:
            m = _model(seed=11)
            m.apply_pulse(SwitchingPulse(2.5, w), stochastic=False)
            results.append(m.normalized_polarization)
        assert results == sorted(results)

    def test_pulse_amplitude_monotonicity(self):
        amps = [1.5, 2.0, 3.0, 4.0]
        results = []
        for a in amps:
            m = _model(seed=11)
            m.apply_pulse(SwitchingPulse(a, 100e-9), stochastic=False)
            results.append(m.normalized_polarization)
        assert results == sorted(results)

    def test_stochastic_pulse_reproducible_with_seed(self):
        m1 = _model(seed=21)
        m2 = _model(seed=21)
        p1 = m1.apply_pulse(SwitchingPulse(2.2, 50e-9), stochastic=True)
        p2 = m2.apply_pulse(SwitchingPulse(2.2, 50e-9), stochastic=True)
        assert p1 == p2

    def test_zero_amplitude_is_noop(self):
        m = _model()
        before = m.normalized_polarization
        m.apply_pulse(SwitchingPulse(0.0, 1e-6))
        assert m.normalized_polarization == before

    def test_rejects_non_positive_width(self):
        with pytest.raises(DeviceError):
            SwitchingPulse(2.0, 0.0)

    def test_switched_charge_density(self):
        m = _model()
        q = m.switched_charge_density(-1.0, 1.0)
        assert q == pytest.approx(2.0 * HZO_10NM.p_rem)


class TestSaturationLoop:
    def test_loop_is_hysteretic(self):
        v, p = saturation_loop(HZO_10NM, 3.0, n_domains=256)
        n = len(v) // 2
        # Up branch and down branch differ at 0 V.
        i_up = np.argmin(np.abs(v[:n]))
        i_down = n + np.argmin(np.abs(v[n:]))
        assert p[i_down] > p[i_up]

    def test_loop_saturates_at_p_rem(self):
        v, p = saturation_loop(HZO_10NM, 4.0, n_domains=256)
        assert p.max() == pytest.approx(HZO_10NM.p_rem, rel=1e-6)
        assert p.min() == pytest.approx(-HZO_10NM.p_rem, rel=1e-6)

    def test_extracted_coercive_voltage_near_material_value(self):
        v, p = saturation_loop(HZO_10NM, 3.0, n_points=401, n_domains=512)
        vc = loop_coercive_voltage(v, p)
        assert vc == pytest.approx(HZO_10NM.v_coercive, rel=0.15)

    def test_rejects_bad_vmax(self):
        with pytest.raises(DeviceError):
            saturation_loop(HZO_10NM, -1.0)

    def test_rejects_too_few_points(self):
        with pytest.raises(DeviceError):
            saturation_loop(HZO_10NM, 3.0, n_points=2)

    def test_coercive_extraction_rejects_mismatched_arrays(self):
        with pytest.raises(DeviceError):
            loop_coercive_voltage(np.array([1.0, 2.0]), np.array([1.0]))

    def test_coercive_extraction_rejects_no_crossing(self):
        v = np.linspace(-1, 1, 10)
        p = np.ones(10)
        with pytest.raises(DeviceError):
            loop_coercive_voltage(v, p)
