"""Tests for variation specs and samplers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.variability import (
    NOMINAL_VARIATION,
    NO_VARIATION,
    VariationSpec,
    pelgrom_sigma,
)
from repro.errors import DeviceError


class TestSpec:
    def test_no_variation_is_all_zero(self):
        assert NO_VARIATION.sigma_vt_fefet == 0.0
        assert NO_VARIATION.sa_offset_sigma == 0.0

    def test_nominal_matches_literature_order(self):
        assert 0.02 < NOMINAL_VARIATION.sigma_vt_fefet < 0.10

    def test_rejects_negative_sigma(self):
        with pytest.raises(DeviceError):
            VariationSpec(sigma_vt_fefet=-0.01)

    @given(factor=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_scaled_multiplies_every_sigma(self, factor):
        s = NOMINAL_VARIATION.scaled(factor)
        assert s.sigma_vt_fefet == pytest.approx(NOMINAL_VARIATION.sigma_vt_fefet * factor)
        assert s.sa_offset_sigma == pytest.approx(NOMINAL_VARIATION.sa_offset_sigma * factor)

    def test_scaled_rejects_negative(self):
        with pytest.raises(DeviceError):
            NOMINAL_VARIATION.scaled(-1.0)


class TestPelgrom:
    def test_sigma_scales_inverse_sqrt_area(self):
        s1 = pelgrom_sigma(2.5e-9, 90e-9, 30e-9)
        s2 = pelgrom_sigma(2.5e-9, 180e-9, 60e-9)
        assert s1 / s2 == pytest.approx(2.0)

    def test_rejects_zero_geometry(self):
        with pytest.raises(DeviceError):
            pelgrom_sigma(2.5e-9, 0.0, 30e-9)

    def test_literature_order_of_magnitude(self):
        """~2.5 mV*um Pelgrom coefficient on a 90x30 nm device -> tens of mV."""
        sigma = pelgrom_sigma(2.5e-9, 90e-9, 30e-9)
        assert 0.01 < sigma < 0.10
