"""Tests for the calibrated retention model."""

from __future__ import annotations

import math

import pytest

from repro.analysis.retention import YEAR_SECONDS, RetentionModel
from repro.devices.material import HZO_10NM
from repro.errors import AnalysisError
from repro.units import celsius_to_kelvin

MODEL = RetentionModel(HZO_10NM)
T85 = celsius_to_kelvin(85.0)
T25 = celsius_to_kelvin(25.0)
T125 = celsius_to_kelvin(125.0)


class TestCalibration:
    def test_spec_point_reproduced(self):
        fraction = MODEL.retention_fraction(10 * YEAR_SECONDS, T85)
        assert fraction == pytest.approx(0.90, abs=0.005)

    def test_barrier_in_reported_range(self):
        """FeFET retention barriers are reported at 1.3-2.2 eV."""
        assert 1.0 < MODEL.barrier_scale_ev < 2.5

    def test_custom_spec_point_honoured(self):
        strict = RetentionModel(HZO_10NM, spec_loss=0.01)
        fraction = strict.retention_fraction(10 * YEAR_SECONDS, T85)
        assert fraction == pytest.approx(0.99, abs=0.005)


class TestShape:
    def test_zero_time_is_pristine(self):
        assert MODEL.retention_fraction(0.0, T85) == 1.0

    def test_monotone_in_time(self):
        times = [1.0, 1e3, 1e6, 1e9]
        fractions = [MODEL.retention_fraction(t, T85) for t in times]
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    def test_monotone_in_temperature(self):
        t = 10 * YEAR_SECONDS
        assert (
            MODEL.retention_fraction(t, T25)
            > MODEL.retention_fraction(t, T85)
            > MODEL.retention_fraction(t, T125)
        )

    def test_room_temperature_nearly_immortal(self):
        assert MODEL.retention_fraction(10 * YEAR_SECONDS, T25) > 0.95


class TestTimeToLoss:
    def test_spec_consistency(self):
        t = MODEL.time_to_loss(0.10, T85)
        assert t == pytest.approx(10 * YEAR_SECONDS, rel=0.02)

    def test_hotter_fails_sooner(self):
        assert MODEL.time_to_loss(0.10, T125) < MODEL.time_to_loss(0.10, T85)

    def test_unreachable_loss_is_infinite(self):
        cold = celsius_to_kelvin(-40.0)
        assert MODEL.time_to_loss(0.5, cold) == math.inf


class TestValidation:
    def test_rejects_negative_time(self):
        with pytest.raises(AnalysisError):
            MODEL.retention_fraction(-1.0, T85)

    def test_rejects_bad_temperature(self):
        with pytest.raises(AnalysisError):
            MODEL.retention_fraction(1.0, 0.0)

    def test_rejects_bad_loss(self):
        with pytest.raises(AnalysisError):
            MODEL.time_to_loss(0.0, T85)

    def test_rejects_bad_spec(self):
        with pytest.raises(AnalysisError):
            RetentionModel(HZO_10NM, spec_loss=1.5)
