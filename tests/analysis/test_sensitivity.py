"""Tests for the tornado sensitivity analysis."""

from __future__ import annotations

import pytest

from repro.analysis.sensitivity import (
    SensitivityEntry,
    default_energy_metric,
    default_margin_metric,
    tornado,
)
from repro.errors import AnalysisError
from repro.tcam import ArrayGeometry

GEO = ArrayGeometry(8, 32)


class TestEntry:
    def test_swing_definition(self):
        e = SensitivityEntry(parameter="p", low=0.9, nominal=1.0, high=1.1)
        assert e.swing_rel == pytest.approx(0.2)

    def test_zero_nominal_rejected(self):
        e = SensitivityEntry(parameter="p", low=0.9, nominal=0.0, high=1.1)
        with pytest.raises(AnalysisError):
            _ = e.swing_rel


class TestTornado:
    @pytest.fixture(scope="class")
    def energy_entries(self):
        return tornado(GEO, default_energy_metric(GEO))

    def test_covers_all_knobs(self, energy_entries):
        assert len(energy_entries) == 5
        names = {e.parameter for e in energy_entries}
        assert "fefet.memory_window" in names
        assert "fefet.width" in names

    def test_sorted_by_absolute_swing(self, energy_entries):
        swings = [abs(e.swing_rel) for e in energy_entries]
        assert swings == sorted(swings, reverse=True)

    def test_energy_rides_on_capacitances(self, energy_entries):
        """Search energy must be capacitance-dominated, not VT-dominated --
        the physical sanity check on the whole energy model."""
        top = energy_entries[0].parameter
        assert top in ("fefet.width", "fefet.c_junction_per_width")
        by_name = {e.parameter: e for e in energy_entries}
        assert abs(by_name["fefet.kp"].swing_rel) < 0.05

    def test_margin_rides_on_window(self):
        entries = tornado(GEO, default_margin_metric())
        assert entries[0].parameter == "fefet.memory_window"

    def test_wider_device_more_energy(self, energy_entries):
        by_name = {e.parameter: e for e in energy_entries}
        width = by_name["fefet.width"]
        assert width.high > width.low
