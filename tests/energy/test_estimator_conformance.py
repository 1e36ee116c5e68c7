"""Conformance suite, parametrized over every registered cell and design.

Every registered cell must price its own writes and standby leakage
sanely (the array's estimator and every write table read these), and
every design's array must carry its own :class:`ArrayEstimator`:
non-negative energies and writes, pulldown monotonicity in the
threshold offset.
"""

from __future__ import annotations

import pytest

from repro.core import all_designs, build_array
from repro.energy.estimator import ArrayEstimator
from repro.tcam import ArrayGeometry
from repro.tcam.cells import get_cell, list_cells
from repro.tcam.trit import Trit

TRITS = (Trit.ZERO, Trit.ONE, Trit.X)


@pytest.fixture(params=list_cells())
def cell(request):
    """Every registered cell technology."""
    return get_cell(request.param)


@pytest.fixture(params=[s.name for s in all_designs() if s.sensing != "nand"])
def array(request):
    """One live array per (non-NAND) registered design."""
    spec = next(s for s in all_designs() if s.name == request.param)
    return build_array(spec, ArrayGeometry(rows=4, cols=8))


class TestCellEstimatorConformance:
    """The cell's own write and leakage pricing."""

    def test_leakage_power_non_negative(self, cell):
        assert cell.standby_leakage(0.9) >= 0.0

    def test_write_energy_non_negative_all_transitions(self, cell):
        for old in TRITS:
            for new in TRITS:
                cost = cell.write_cost(old, new)
                assert cost.energy >= 0.0
                assert cost.latency >= 0.0

    def test_same_trit_write_free_when_nonvolatile(self, cell):
        """NV cells skip redundant programs; volatile SRAM always burns."""
        for trit in TRITS:
            cost = cell.write_cost(trit, trit)
            if cell.nonvolatile:
                assert cost.energy == 0.0
                assert cost.latency == 0.0
            else:
                assert cost.energy > 0.0


class TestCellPhysicsConformance:
    """Electrical sanity every registered descriptor must satisfy."""

    def test_pulldown_monotone_in_vt_offset(self, cell):
        """Raising the device threshold can only weaken the pulldown."""
        v_ml = 0.5
        offsets = (-0.05, 0.0, 0.05, 0.1)
        currents = [cell.i_pulldown(v_ml, vt_offset=off) for off in offsets]
        for weaker, stronger in zip(currents[1:], currents):
            assert weaker <= stronger

    def test_pulldown_exceeds_leak(self, cell):
        """A mismatch must conduct more than the worst matching cell."""
        v_ml = 0.5
        assert cell.i_pulldown(v_ml) > cell.i_leak(v_ml) >= 0.0

    def test_bits_per_cell_at_least_one_binary_equivalent(self, cell):
        assert cell.bits_per_cell >= 1.0

    def test_match_accuracy_in_unit_interval(self, cell):
        assert 0.0 < cell.match_accuracy() <= 1.0


class TestArrayEstimatorConformance:
    def test_array_back_reference(self, array):
        assert isinstance(array.estimator, ArrayEstimator)
        assert array.estimator.array is array

    def test_priced_actions_non_negative(self, array):
        est = array.estimator
        assert est.sl_toggle_energy() >= 0.0
        assert est.encode_energy() >= 0.0
        if array.sensing == "precharge":
            assert est.ml_precharge_energy(0.0) >= 0.0
            assert est.ml_dissipation_energy(0.0) >= 0.0
            assert est.sense_idle_energy() >= 0.0
        else:
            assert est.race(1e-6).energy >= 0.0

    def test_leakage_power_scales_with_geometry(self, array):
        per_cell = array.cell.standby_leakage(array.vdd) * array.vdd
        total = array.estimator.leakage_power(array.vdd)
        assert total == pytest.approx(
            array.geometry.rows * array.geometry.cols * per_cell
        )
