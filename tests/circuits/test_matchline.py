"""Tests for the match-line discharge model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits.matchline import (
    MatchLine,
    MatchLineLoad,
    ideal_discharge_delay,
)
from repro.errors import CircuitError

C_ML = 10e-15
I_PD = 20e-6   # strong pull-down
I_LK = 1e-9    # weak leak


def _load(n_miss: int, n_match: int) -> MatchLineLoad:
    return MatchLineLoad(
        capacitance=C_ML,
        n_miss=n_miss,
        n_match=n_match,
        # Cell currents answer elementwise over a voltage array.
        i_pulldown=lambda v: np.where(np.asarray(v) > 0, I_PD, 0.0),
        i_leak=lambda v: np.where(np.asarray(v) > 0, I_LK, 0.0),
    )


class TestLoad:
    def test_total_current_sums_contributions(self):
        load = _load(2, 30)
        assert load.total_current(0.9) == pytest.approx(2 * I_PD + 30 * I_LK)

    def test_rejects_empty_line(self):
        with pytest.raises(CircuitError):
            _load(0, 0)

    def test_rejects_negative_counts(self):
        with pytest.raises(CircuitError):
            _load(-1, 4)

    def test_rejects_zero_capacitance(self):
        with pytest.raises(CircuitError):
            MatchLineLoad(0.0, 1, 0, lambda v: 1e-6, lambda v: 1e-9)


class TestTiming:
    def test_single_miss_matches_constant_current_estimate(self):
        ml = MatchLine(_load(1, 63), 0.9, 0.9)
        t = ml.time_to(0.45)
        ideal = ideal_discharge_delay(C_ML, I_PD, 0.9, 0.45)
        assert t == pytest.approx(ideal, rel=0.01)

    def test_more_misses_discharge_faster(self):
        t1 = MatchLine(_load(1, 63), 0.9, 0.9).time_to(0.45)
        t4 = MatchLine(_load(4, 60), 0.9, 0.9).time_to(0.45)
        assert t4 < t1
        assert t1 / t4 == pytest.approx(4.0, rel=0.05)

    def test_match_line_barely_moves(self):
        """64 cells x 1 nA over 200 ps on 10 fF droops ~1.3 mV."""
        ml = MatchLine(_load(0, 64), 0.9, 0.9)
        v = ml.voltage_after(200e-12)
        assert v == pytest.approx(0.9, abs=5e-3)
        assert v < 0.9

    def test_waveform_endpoint_agrees_with_voltage_after(self):
        ml = MatchLine(_load(1, 63), 0.9, 0.9)
        grid = np.linspace(0.0, 100e-12, 65)
        wf = ml.waveform(grid)
        assert wf[-1] == pytest.approx(ml.voltage_after(100e-12), abs=1e-3)

    def test_time_to_rejects_target_above_precharge(self):
        with pytest.raises(CircuitError):
            MatchLine(_load(1, 1), 0.9, 0.9).time_to(1.0)

    def test_rejects_supply_below_precharge(self):
        with pytest.raises(CircuitError):
            MatchLine(_load(1, 1), 0.9, 0.8)


class TestEvaluate:
    def test_miss_detected(self):
        ml = MatchLine(_load(1, 63), 0.9, 0.9)
        result = ml.evaluate(v_sense=0.45, t_eval=3 * ml.time_to(0.45))
        assert not result.is_match

    def test_match_detected(self):
        ml = MatchLine(_load(0, 64), 0.9, 0.9)
        result = ml.evaluate(v_sense=0.45, t_eval=200e-12)
        assert result.is_match

    def test_miss_energy_approximately_cv2(self):
        """A fully discharged line must be recharged: E ~ C * Vpre * Vdd."""
        ml = MatchLine(_load(4, 60), 0.9, 0.9)
        result = ml.evaluate(v_sense=0.45, t_eval=1e-9)
        assert result.energy_precharge == pytest.approx(C_ML * 0.9 * 0.9, rel=0.02)

    def test_match_energy_tiny(self):
        ml = MatchLine(_load(0, 64), 0.9, 0.9)
        result = ml.evaluate(v_sense=0.45, t_eval=200e-12)
        assert result.energy_precharge < 0.01 * C_ML * 0.81

    def test_energy_non_negative(self):
        for n in (0, 1, 8):
            ml = MatchLine(_load(n, 64 - n), 0.9, 0.9)
            r = ml.evaluate(0.45, 300e-12)
            assert r.energy_precharge >= 0.0
            assert r.energy_dissipated >= 0.0

    def test_rejects_sense_outside_range(self):
        ml = MatchLine(_load(1, 1), 0.9, 0.9)
        with pytest.raises(CircuitError):
            ml.evaluate(v_sense=1.2, t_eval=1e-10)


class TestMargin:
    def test_margin_positive_for_healthy_cell(self):
        ml = MatchLine(_load(0, 64), 0.9, 0.9)
        t_eval = 2 * MatchLine(_load(1, 63), 0.9, 0.9).time_to(0.45)
        margin = ml.worst_case_margin(t_eval, _load(1, 63))
        assert margin > 0.5

    def test_margin_requires_single_miss_rival(self):
        ml = MatchLine(_load(0, 64), 0.9, 0.9)
        with pytest.raises(CircuitError):
            ml.worst_case_margin(1e-10, _load(2, 62))


class TestIdealDelay:
    def test_formula(self):
        assert ideal_discharge_delay(10e-15, 10e-6, 0.9, 0.45) == pytest.approx(
            10e-15 * 0.45 / 10e-6
        )

    def test_zero_current_infinite(self):
        assert ideal_discharge_delay(10e-15, 0.0, 0.9, 0.45) == math.inf

    def test_rejects_bad_thresholds(self):
        with pytest.raises(CircuitError):
            ideal_discharge_delay(10e-15, 1e-6, 0.45, 0.9)
