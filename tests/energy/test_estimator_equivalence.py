"""Estimator-vs-legacy equivalence: the routing changed, the bits did not.

Two layers of evidence that moving the array's energy accounting onto
:class:`ArrayEstimator` is a pure refactor:

* **Expression equivalence** -- each typed pricing method returns the
  exact float the array's historical inline formula produced (same
  operand grouping, compared with ``==``, not ``approx``).
* **Ledger equivalence** -- a search on an array with the default
  estimator books the same ledger, bit for bit, as one with an
  explicitly injected pass-through estimator; and a deliberately
  perturbed estimator changes the ledger, proving every booking
  actually flows through the estimator (no dead routing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import all_designs, build_array
from repro.energy.estimator import ArrayEstimator
from repro.tcam import ArrayGeometry
from repro.tcam.array import TCAMArray
from repro.tcam.cells import get_cell
from repro.tcam.trit import Trit, random_word

DESIGNS = [s.name for s in all_designs() if s.sensing != "nand"]


def _workload(cols: int, rows: int, searches: int = 6):
    rng = np.random.default_rng(97531)
    words = [random_word(cols, rng, x_fraction=0.3) for _ in range(rows)]
    keys = [random_word(cols, rng) for _ in range(searches)]
    return words, keys


@pytest.fixture(params=DESIGNS)
def design_spec(request):
    return next(s for s in all_designs() if s.name == request.param)


class TestExpressionEquivalence:
    """Typed methods reproduce the legacy inline expressions bitwise."""

    def test_sl_toggle(self, design_spec):
        array = build_array(design_spec, ArrayGeometry(4, 8))
        est = array.estimator
        assert est.sl_toggle_energy() == array.search_line.toggle_energy(
            array.cell.v_search
        )

    def test_ml_precharge_counts(self, design_spec):
        if design_spec.sensing != "precharge":
            pytest.skip("precharge-path expression")
        array = build_array(design_spec, ArrayGeometry(4, 8))
        est = array.estimator
        for v_end in (0.0, 0.12, 0.4):
            single = array.precharge.restore_energy(array.c_ml, v_end)
            assert est.ml_precharge_energy(v_end) == single
            # The scaled form preserves the legacy grouping n * (...).
            assert est.ml_precharge_energy(v_end, 7) == 7 * single

    def test_ml_dissipation_counts(self, design_spec):
        if design_spec.sensing != "precharge":
            pytest.skip("precharge-path expression")
        array = build_array(design_spec, ArrayGeometry(4, 8))
        est = array.estimator
        v_pre = array.precharge.target_voltage()
        for v_end in (0.0, 0.12, 0.4):
            assert est.ml_dissipation_energy(v_end) == 0.5 * array.c_ml * (
                v_pre**2 - v_end**2
            )
            assert est.ml_dissipation_energy(v_end, 5) == 5 * 0.5 * array.c_ml * (
                v_pre**2 - v_end**2
            )

    def test_sense_strobe_and_offset(self, design_spec):
        if design_spec.sensing != "precharge":
            pytest.skip("voltage-SA expression")
        array = build_array(design_spec, ArrayGeometry(4, 8))
        est = array.estimator
        legacy = array.sense_amp.strobe(0.07)
        routed = est.sense(0.07)
        assert routed.energy == legacy.energy
        assert routed.is_match == legacy.is_match
        shifted = est.sense(0.07, offset=0.02)
        assert shifted.energy == array.sense_amp.strobe(0.07 - 0.02).energy

    def test_sense_idle(self, design_spec):
        if design_spec.sensing != "precharge":
            pytest.skip("voltage-SA expression")
        array = build_array(design_spec, ArrayGeometry(4, 8))
        est = array.estimator
        assert est.sense_idle_energy(3) == 3 * array.sense_amp.c_internal * (
            array.vdd**2
        )

    def test_race_evaluation(self, design_spec):
        if design_spec.sensing != "current_race":
            pytest.skip("current-race expression")
        array = build_array(design_spec, ArrayGeometry(4, 8))
        est = array.estimator
        legacy = array.race_amp.evaluate(array.c_ml, 3e-6)
        routed = est.race(3e-6)
        assert routed.energy == legacy.energy
        assert routed.is_match == legacy.is_match

    def test_encode(self, design_spec):
        array = build_array(design_spec, ArrayGeometry(4, 8))
        assert array.estimator.encode_energy() == array.encoder.energy_per_search

    def test_write_cost(self, design_spec):
        array = build_array(design_spec, ArrayGeometry(4, 8))
        est = array.estimator
        for old in (Trit.ZERO, Trit.ONE, Trit.X):
            for new in (Trit.ZERO, Trit.ONE, Trit.X):
                assert est.write_cost(old, new) == array.cell.write_cost(old, new)

    def test_leakage_power_grouping(self, design_spec):
        array = build_array(design_spec, ArrayGeometry(4, 8))
        rows, cols = array.geometry.rows, array.geometry.cols
        legacy = rows * cols * array.cell.standby_leakage(array.vdd) * array.vdd
        assert array.estimator.leakage_power(array.vdd) == legacy
        assert array.standby_power() == legacy


class TestLedgerEquivalence:
    """Whole-search ledgers are bit-identical through the estimator."""

    def test_injected_passthrough_estimator_is_identical(self, design_spec):
        geometry = ArrayGeometry(8, 16)
        words, keys = _workload(16, 8)
        default = build_array(design_spec, geometry)
        injected = build_array(design_spec, geometry)
        injected.estimator = ArrayEstimator(injected)
        default.load(words)
        injected.load(words)
        for key in keys:
            a = default.search(key)
            b = injected.search(key)
            assert a.energy.as_dict() == b.energy.as_dict()
            assert a.search_delay == b.search_delay
            assert np.array_equal(a.match_mask, b.match_mask)

    def test_perturbed_estimator_changes_the_ledger(self, design_spec):
        """Every searchline joule flows through the estimator."""

        class Doubled(ArrayEstimator):
            def sl_toggle_energy(self) -> float:
                return 2.0 * super().sl_toggle_energy()

        geometry = ArrayGeometry(8, 16)
        words, keys = _workload(16, 8, searches=2)
        stock = build_array(design_spec, geometry)
        doubled = build_array(design_spec, geometry)
        doubled.estimator = Doubled(doubled)
        stock.load(words)
        doubled.load(words)
        out_stock = stock.search(keys[0])
        out_doubled = doubled.search(keys[0])
        assert out_doubled.energy.get("sl") == 2.0 * out_stock.energy.get("sl")

    def test_perturbed_write_estimator_changes_write_cost(self):
        from repro.tcam.cell import WriteCost

        class PriceyWrites(ArrayEstimator):
            def write_cost(self, old, new) -> WriteCost:
                base = super().write_cost(old, new)
                return WriteCost(energy=base.energy + 1e-12, latency=base.latency)

        rng = np.random.default_rng(5)
        word = random_word(8, rng)
        stock = TCAMArray(get_cell("fefet2t"), ArrayGeometry(4, 8))
        pricey = TCAMArray(get_cell("fefet2t"), ArrayGeometry(4, 8))
        pricey.estimator = PriceyWrites(pricey)
        e_stock = stock.write(0, word).energy.total
        e_pricey = pricey.write(0, word).energy.total
        assert e_pricey > e_stock
