"""Tests for the EKV MOSFET model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import MOSFET, ekv_current, nmos_45nm, pmos_45nm
from repro.errors import DeviceError
from repro.units import NANO, thermal_voltage

PHI_T = thermal_voltage(300.0)


class TestEkvCore:
    def test_zero_vds_zero_current(self):
        assert ekv_current(0.9, 0.0, 0.42, 1e-3, 1.25, PHI_T) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_negative_vds(self):
        with pytest.raises(DeviceError):
            ekv_current(0.9, -0.1, 0.42, 1e-3, 1.25, PHI_T)

    def test_rejects_slope_below_one(self):
        with pytest.raises(DeviceError):
            ekv_current(0.9, 0.5, 0.42, 1e-3, 0.9, PHI_T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vds(self, bad):
        with pytest.raises(DeviceError):
            ekv_current(1.1, bad, 0.42, 1e-3, 1.25, PHI_T)
        with pytest.raises(DeviceError):
            ekv_current(1.1, np.array([0.3, bad, 0.6]), 0.42, 1e-3, 1.25, PHI_T)

    def test_rejects_negative_vds_in_array(self):
        with pytest.raises(DeviceError):
            ekv_current(0.9, np.array([0.5, -1e-12]), 0.42, 1e-3, 1.25, PHI_T)

    def test_scalar_call_returns_float(self):
        assert type(ekv_current(0.9, 0.5, 0.42, 1e-3, 1.25, PHI_T)) is float
        out = ekv_current(0.9, np.array([0.5]), 0.42, 1e-3, 1.25, PHI_T)
        assert isinstance(out, np.ndarray) and out.shape == (1,)

    @given(
        vgs=st.floats(min_value=-0.5, max_value=1.5),
        vt=st.floats(min_value=-0.2, max_value=1.8),
        vds=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=70),
        lam=st.sampled_from([0.0, 0.08]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_call_is_array_element_bitwise(self, vgs, vt, vds, lam):
        """One reference: a scalar call is exactly one element of an array call."""
        arr = ekv_current(vgs, np.array(vds), vt, 1e-3, 1.3, PHI_T, lam)
        for k, v in enumerate(vds):
            assert ekv_current(vgs, v, vt, 1e-3, 1.3, PHI_T, lam) == arr[k]

    def test_softplus_cutoffs(self):
        """Beyond +-30 thermal units the forward term is x**2 / 0 exactly."""
        phi = 0.025
        # vp / (2 phi) = 40: saturated forward term; reverse term at -40.
        x = 2.0 / (2.0 * phi)
        i = ekv_current(2.0, 4.0, 0.0, 1.0, 1.0, phi)
        assert i == 2.0 * phi * phi * (x * x)
        # Far below threshold both terms vanish: exactly zero current.
        assert ekv_current(-2.0, 0.5, 0.42, 1.0, 1.0, phi) == 0.0

    @given(
        vgs=st.floats(min_value=0.0, max_value=1.2),
        vds=st.floats(min_value=0.0, max_value=1.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_current_non_negative(self, vgs, vds):
        assert ekv_current(vgs, vds, 0.42, 1e-3, 1.25, PHI_T) >= 0.0

    @given(vds=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_vgs(self, vds):
        currents = [
            ekv_current(v, vds, 0.42, 1e-3, 1.25, PHI_T)
            for v in np.linspace(0.0, 1.2, 25)
        ]
        assert all(b >= a for a, b in zip(currents, currents[1:]))

    @given(vgs=st.floats(min_value=0.5, max_value=1.2))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_vds(self, vgs):
        currents = [
            ekv_current(vgs, v, 0.42, 1e-3, 1.25, PHI_T)
            for v in np.linspace(0.0, 1.2, 25)
        ]
        assert all(b >= a - 1e-18 for a, b in zip(currents, currents[1:]))

    def test_subthreshold_slope_matches_n_phi_t(self):
        """Deep below threshold, current decades follow S = n * phi_t * ln(10)."""
        n = 1.25
        i1 = ekv_current(0.10, 0.9, 0.42, 1e-3, n, PHI_T)
        i2 = ekv_current(0.10 - n * PHI_T * np.log(10.0), 0.9, 0.42, 1e-3, n, PHI_T)
        assert i1 / i2 == pytest.approx(10.0, rel=0.03)

    def test_strong_inversion_roughly_quadratic(self):
        i1 = ekv_current(0.42 + 0.2, 2.0, 0.42, 1e-3, 1.0, PHI_T)
        i2 = ekv_current(0.42 + 0.4, 2.0, 0.42, 1e-3, 1.0, PHI_T)
        assert i2 / i1 == pytest.approx(4.0, rel=0.15)

    def test_channel_length_modulation_increases_current(self):
        base = ekv_current(0.9, 0.9, 0.42, 1e-3, 1.25, PHI_T, lambda_cl=0.0)
        clm = ekv_current(0.9, 0.9, 0.42, 1e-3, 1.25, PHI_T, lambda_cl=0.1)
        assert clm == pytest.approx(base * 1.09, rel=1e-6)


class TestMOSFETDevice:
    def test_on_current_microamps(self):
        m = MOSFET(nmos_45nm())
        assert 10e-6 < m.on_current(0.9) < 1e-3

    def test_off_current_picoamps(self):
        m = MOSFET(nmos_45nm())
        assert m.off_current(0.9) < 1e-9

    def test_on_off_ratio_large(self):
        m = MOSFET(nmos_45nm())
        assert m.on_current(0.9) / m.off_current(0.9) > 1e5

    def test_pmos_weaker_than_nmos_at_same_width(self):
        n = MOSFET(nmos_45nm(width=90 * NANO))
        p = MOSFET(pmos_45nm(width=90 * NANO))
        assert p.on_current(0.9) < n.on_current(0.9)

    def test_width_scaling_of_current(self):
        m1 = MOSFET(nmos_45nm(width=90 * NANO))
        m2 = MOSFET(nmos_45nm(width=180 * NANO))
        assert m2.on_current(0.9) == pytest.approx(2.0 * m1.on_current(0.9))

    def test_width_scaling_of_capacitance(self):
        m1 = MOSFET(nmos_45nm(width=90 * NANO))
        m2 = MOSFET(nmos_45nm(width=180 * NANO))
        assert m2.gate_capacitance == pytest.approx(2.0 * m1.gate_capacitance)
        assert m2.junction_capacitance == pytest.approx(2.0 * m1.junction_capacitance)

    def test_effective_resistance_definition(self):
        m = MOSFET(nmos_45nm())
        assert m.effective_resistance(0.9) == pytest.approx(0.9 / (2 * m.on_current(0.9)))

    def test_scaled_returns_new_params(self):
        p = nmos_45nm()
        p2 = p.scaled(200 * NANO)
        assert p2.width == 200 * NANO
        assert p.width != p2.width

    def test_iv_curve_shape(self):
        m = MOSFET(nmos_45nm())
        vgs = np.linspace(0, 1.2, 20)
        curve = m.iv_curve(vgs, 0.9)
        assert curve.shape == (20,)
        assert np.all(np.diff(curve) >= 0.0)

    def test_rejects_bad_polarity(self):
        from repro.devices.mosfet import MOSFETParams

        with pytest.raises(DeviceError):
            MOSFETParams(
                name="x", polarity="z", vt0=0.4, kp=1e-4, n_slope=1.2,
                lambda_cl=0.1, width=1e-7, length=4.5e-8,
                c_ox_per_area=1e-2, c_overlap_per_width=3e-10,
                c_junction_per_width=8e-10,
            )

    def test_rejects_zero_width(self):
        with pytest.raises(DeviceError):
            nmos_45nm(width=0.0)

    def test_hotter_device_leaks_more(self):
        cold = MOSFET(nmos_45nm(), temperature_k=300.0)
        hot = MOSFET(nmos_45nm(), temperature_k=360.0)
        assert hot.off_current(0.9) > cold.off_current(0.9)
