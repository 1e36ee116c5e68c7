"""Tests for the three cell descriptors (shared contract + per-technology)."""

from __future__ import annotations

import pytest

from repro.devices.mosfet import MOSFET
from repro.devices.resistive import ReRAM, ReRAMState
from repro.errors import TCAMError
from repro.tcam.cells import CMOS16TCell, FeFET2TCell, ReRAM2T2RCell
from repro.tcam.cells.fefet2t import FeFET2TCellParams, default_fefet_cell_params
from repro.tcam.trit import Trit


class TestSharedContract:
    """Every descriptor must satisfy these regardless of technology."""

    def test_pulldown_beats_leak(self, any_cell):
        assert any_cell.i_pulldown(0.9) > 100.0 * any_cell.i_leak(0.9)

    def test_currents_zero_at_zero_volts(self, any_cell):
        assert any_cell.i_pulldown(0.0) == pytest.approx(0.0, abs=1e-12)
        assert any_cell.i_leak(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_pulldown_monotone_in_vml(self, any_cell):
        assert any_cell.i_pulldown(0.9) >= any_cell.i_pulldown(0.45) > 0.0

    def test_positive_vt_offset_weakens_pulldown(self, any_cell):
        assert any_cell.i_pulldown(0.9, vt_offset=0.1) <= any_cell.i_pulldown(0.9)

    def test_capacitances_positive(self, any_cell):
        assert any_cell.c_ml_per_cell > 0.0
        assert any_cell.c_sl_gate_per_cell > 0.0

    def test_area_positive(self, any_cell):
        assert any_cell.area_f2 > 0.0

    def test_write_same_trit_cheap_or_free(self, any_cell):
        for t in Trit:
            cost = any_cell.write_cost(t, t)
            change = any_cell.write_cost(Trit.ZERO, Trit.ONE)
            assert cost.energy <= change.energy

    def test_write_costs_non_negative(self, any_cell):
        for old in Trit:
            for new in Trit:
                c = any_cell.write_cost(old, new)
                assert c.energy >= 0.0 and c.latency >= 0.0

    def test_standby_leakage_non_negative(self, any_cell):
        assert any_cell.standby_leakage(0.9) >= 0.0

    def test_standby_rejects_bad_vdd(self, any_cell):
        with pytest.raises(TCAMError):
            any_cell.standby_leakage(0.0)

    def test_describe_keys(self, any_cell):
        d = any_cell.describe()
        assert {"technology", "transistors", "area_f2"} <= set(d)

    def test_on_off_ratio_large(self, any_cell):
        assert any_cell.on_off_ratio(0.9) > 100.0

    def test_v_search_positive(self, any_cell):
        assert any_cell.v_search > 0.0


class TestCrossTechnologyOrdering:
    """The comparison-table facts the paper's Table 1 rests on."""

    def setup_method(self):
        self.cmos = CMOS16TCell()
        self.reram = ReRAM2T2RCell()
        self.fefet = FeFET2TCell()

    def test_transistor_counts(self):
        assert self.cmos.transistor_count == 16
        assert self.reram.transistor_count == 2
        assert self.fefet.transistor_count == 2

    def test_area_ordering(self):
        assert self.fefet.area_f2 < self.reram.area_f2 < self.cmos.area_f2

    def test_cmos_area_at_least_3x_fefet(self):
        assert self.cmos.area_f2 / self.fefet.area_f2 > 3.0

    def test_volatility(self):
        assert not self.cmos.nonvolatile
        assert self.reram.nonvolatile
        assert self.fefet.nonvolatile

    def test_fefet_ml_load_smallest(self):
        assert self.fefet.c_ml_per_cell < self.cmos.c_ml_per_cell

    def test_fefet_on_off_beats_reram(self):
        """Polarization windows buy orders of magnitude over filaments."""
        assert self.fefet.on_off_ratio(0.9) > 10.0 * self.reram.on_off_ratio(0.9)

    def test_sram_leaks_most_in_standby(self):
        assert self.cmos.standby_leakage(0.9) > self.fefet.standby_leakage(0.9)
        assert self.cmos.standby_leakage(0.9) > self.reram.standby_leakage(0.9)

    def test_fefet_write_costs_more_than_sram(self):
        """Non-volatile writes are the FeTCAM tax (Table R-T3)."""
        e_fefet = self.fefet.write_cost(Trit.ZERO, Trit.ONE).energy
        e_cmos = self.cmos.write_cost(Trit.ZERO, Trit.ONE).energy
        assert e_fefet > e_cmos

    def test_fefet_write_slower_than_sram(self):
        t_fefet = self.fefet.write_cost(Trit.ZERO, Trit.ONE).latency
        t_cmos = self.cmos.write_cost(Trit.ZERO, Trit.ONE).latency
        assert t_fefet > t_cmos


class TestReRAMSpecifics:
    def test_match_leak_set_by_hrs(self):
        cell = ReRAM2T2RCell()
        # Access-transistor on-resistance, linearized at full gate drive.
        r_access = 0.05 / MOSFET(cell.params.access_nmos).current(cell.params.vdd, 0.05)
        expected = 0.9 / (cell.params.rram.r_hrs + r_access)
        assert cell.i_leak(0.9) == pytest.approx(expected)

    def test_pulldown_limited_by_lrs_or_saturation(self):
        cell = ReRAM2T2RCell()
        i = cell.i_pulldown(0.9)
        assert i <= 0.9 / cell.params.rram.r_lrs

    def test_write_x_resets_one_element(self):
        cell = ReRAM2T2RCell()
        e_to_x = cell.write_cost(Trit.ONE, Trit.X).energy
        e_swap = cell.write_cost(Trit.ONE, Trit.ZERO).energy
        assert 0.0 < e_to_x < e_swap

    def test_write_cost_equals_element_model(self):
        """The cell's write energies are SET/RESET pulses of its ReRAM element."""
        cell = ReRAM2T2RCell()
        element = ReRAM(cell.params.rram)  # powers on in HRS
        e_set = element.write(ReRAMState.LRS)
        e_reset = element.write(ReRAMState.HRS)
        assert cell.write_cost(Trit.X, Trit.ONE).energy == e_set
        assert cell.write_cost(Trit.ONE, Trit.X).energy == e_reset
        assert cell.write_cost(Trit.ONE, Trit.ZERO).energy == e_set + e_reset


class TestFeFETCellSpecifics:
    def test_search_voltage_inside_window(self):
        p = FeFET2TCellParams()
        assert p.fefet.vt_lvt < p.v_search < p.fefet.vt_hvt

    def test_rejects_search_voltage_outside_window(self):
        with pytest.raises(TCAMError):
            FeFET2TCellParams(v_search=2.0)

    def test_leak_includes_undriven_lvt_path(self):
        """The undriven LVT device dominates the matching-cell leakage."""
        cell = FeFET2TCell()
        f = cell.params.fefet
        driven_hvt = cell._current(cell.params.v_search, 0.9, f.vt_hvt)
        assert cell.i_leak(0.9) > driven_hvt

    def test_write_to_x_skips_program_pulse(self):
        cell = FeFET2TCell()
        e_x = cell.write_cost(Trit.ONE, Trit.X).energy
        e_data = cell.write_cost(Trit.ONE, Trit.ZERO).energy
        assert e_x < e_data

    def test_write_latency_two_phases(self):
        cell = FeFET2TCell()
        cost = cell.write_cost(Trit.ZERO, Trit.ONE)
        assert cost.latency == pytest.approx(2 * cell.params.fefet.program_width)

    def test_default_params_helper(self):
        p = default_fefet_cell_params()
        assert p.memory_window == pytest.approx(1.2)
