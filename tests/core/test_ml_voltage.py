"""Tests for the ML swing solver (Design LV)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.designs import get_design
from repro.core.ml_voltage import energy_vs_vml, margin_at_vml, minimum_ml_voltage
from repro.errors import DesignError
from repro.tcam import ArrayGeometry

GEO = ArrayGeometry(8, 32)
LV = get_design("fefet2t_lv")


class TestMarginAtVml:
    def test_full_swing_report(self):
        rep = margin_at_vml(LV, GEO, 0.9)
        assert rep.functional
        assert rep.margin > 0.3
        assert rep.energy_per_search > 0.0

    def test_margin_shrinks_with_swing(self):
        m_high = margin_at_vml(LV, GEO, 0.9).margin
        m_low = margin_at_vml(LV, GEO, 0.45).margin
        assert m_low < m_high

    def test_energy_shrinks_with_swing(self):
        e_high = margin_at_vml(LV, GEO, 0.9).energy_per_search
        e_low = margin_at_vml(LV, GEO, 0.45).energy_per_search
        assert e_low < e_high

    def test_guardband_consistent(self):
        rep = margin_at_vml(LV, GEO, 0.6)
        assert rep.guardband_sigmas == pytest.approx(rep.margin / 0.010)

    def test_rejects_race_design(self):
        with pytest.raises(DesignError):
            margin_at_vml(get_design("fefet_cr"), GEO, 0.5)


class TestMinimumMlVoltage:
    def test_solution_meets_guardband(self):
        v = minimum_ml_voltage(LV, GEO, guardband_sigmas=10.0)
        rep = margin_at_vml(LV, GEO, v)
        assert rep.margin >= 10.0 * 0.010 * 0.99  # within bisection tolerance

    def test_tighter_guardband_needs_more_swing(self):
        v_loose = minimum_ml_voltage(LV, GEO, guardband_sigmas=5.0)
        v_tight = minimum_ml_voltage(LV, GEO, guardband_sigmas=30.0)
        assert v_tight >= v_loose

    def test_impossible_guardband_raises(self):
        with pytest.raises(DesignError):
            minimum_ml_voltage(LV, GEO, guardband_sigmas=1e4)


class TestEnergySweep:
    def test_sweep_length_and_monotone_energy(self):
        swings = np.array([0.4, 0.6, 0.9])
        reports = energy_vs_vml(LV, GEO, swings)
        assert len(reports) == 3
        energies = [r.energy_per_search for r in reports]
        assert energies == sorted(energies)

    def test_rejects_non_positive_swing(self):
        with pytest.raises(DesignError):
            energy_vs_vml(LV, GEO, np.array([0.0, 0.5]))
