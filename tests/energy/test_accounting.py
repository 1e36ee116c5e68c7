"""Tests for the energy ledger, including additive-invariant properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import EnergyComponent, EnergyLedger
from repro.errors import ReproError

joules = st.floats(min_value=0.0, max_value=1e-9)
components = st.sampled_from([c for c in EnergyComponent])


class TestLedgerBasics:
    def test_empty_total_zero(self):
        assert EnergyLedger().total == 0.0

    def test_add_and_get(self):
        led = EnergyLedger()
        led.add(EnergyComponent.SEARCHLINE, 1e-15)
        assert led.get(EnergyComponent.SEARCHLINE) == pytest.approx(1e-15)
        assert led.get("sl") == pytest.approx(1e-15)

    def test_string_and_enum_keys_merge(self):
        led = EnergyLedger()
        led.add(EnergyComponent.SEARCHLINE, 1e-15)
        led.add("sl", 2e-15)
        assert led.total == pytest.approx(3e-15)

    def test_missing_component_zero(self):
        assert EnergyLedger().get("nothing") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ReproError):
            EnergyLedger().add("x", -1.0)

    def test_rejects_nan(self):
        with pytest.raises(ReproError):
            EnergyLedger().add("x", math.nan)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_rejects_infinite(self, bad):
        led = EnergyLedger({"x": 1.0})
        with pytest.raises(ReproError, match="finite"):
            led.add("x", bad)
        with pytest.raises(ReproError, match="finite"):
            EnergyLedger({"x": bad})
        assert led.as_dict() == {"x": 1.0}

    def test_merge_is_add_per_component(self):
        """merge accumulates the booked floats exactly as add would, in
        the target's booking order with new components appended."""
        a = EnergyLedger({"sl": 0.1, "sa": 0.2})
        b = EnergyLedger({"sa": 0.7, "leakage": 0.3})
        ref = EnergyLedger({"sl": 0.1, "sa": 0.2})
        for name, joules in b:
            ref.add(name, joules)
        a.merge(b)
        assert list(a) == list(ref)

    def test_breakdown_sorted_descending(self):
        led = EnergyLedger({"a": 1.0, "b": 3.0, "c": 2.0})
        assert list(led.breakdown()) == ["b", "c", "a"]

    def test_fractions_sum_to_one(self):
        led = EnergyLedger({"a": 1.0, "b": 3.0})
        assert sum(led.fractions().values()) == pytest.approx(1.0)

    def test_fractions_empty_ledger(self):
        assert EnergyLedger().fractions() == {}

    def test_repr_contains_components(self):
        led = EnergyLedger({"sl": 1e-15})
        assert "sl" in repr(led)


class TestLedgerAlgebra:
    @given(a=joules, b=joules)
    @settings(max_examples=30)
    def test_addition_commutes(self, a, b):
        l1 = EnergyLedger({"x": a}) + EnergyLedger({"x": b})
        l2 = EnergyLedger({"x": b}) + EnergyLedger({"x": a})
        assert l1.total == pytest.approx(l2.total)

    @given(values=st.lists(joules, min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_sum_equals_manual_total(self, values):
        ledgers = [EnergyLedger({"e": v}) for v in values]
        assert EnergyLedger.sum(ledgers).total == pytest.approx(sum(values))

    @given(a=joules, factor=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=30)
    def test_scaling(self, a, factor):
        led = EnergyLedger({"x": a})
        assert led.scaled(factor).total == pytest.approx(a * factor)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ReproError):
            EnergyLedger().scaled(-1.0)

    def test_merge_mutates_target_only(self):
        a = EnergyLedger({"x": 1.0})
        b = EnergyLedger({"x": 2.0})
        a.merge(b)
        assert a.total == pytest.approx(3.0)
        assert b.total == pytest.approx(2.0)

    def test_add_operator_leaves_operands(self):
        a = EnergyLedger({"x": 1.0})
        b = EnergyLedger({"y": 2.0})
        c = a + b
        assert c.total == pytest.approx(3.0)
        assert a.total == pytest.approx(1.0)


class TestLedgerReadSurface:
    """The stable read API the observability layer and CLI consume."""

    def test_components_in_insertion_order(self):
        led = EnergyLedger()
        led.add("b", 1.0)
        led.add("a", 2.0)
        assert led.components() == ("b", "a")

    def test_as_dict_is_a_copy(self):
        led = EnergyLedger({"x": 1.0})
        d = led.as_dict()
        d["x"] = 99.0
        assert led.get("x") == 1.0

    def test_iter_yields_pairs(self):
        led = EnergyLedger({"a": 1.0, "b": 2.0})
        assert list(led) == [("a", 1.0), ("b", 2.0)]

    def test_len_counts_components(self):
        assert len(EnergyLedger()) == 0
        assert len(EnergyLedger({"a": 1.0, "b": 2.0})) == 2

    def test_fraction_of_component(self):
        led = EnergyLedger({"a": 1.0, "b": 3.0})
        assert led.fraction("b") == pytest.approx(0.75)
        assert led.fraction(EnergyComponent.SEARCHLINE) == 0.0

    def test_fraction_empty_ledger_zero(self):
        assert EnergyLedger().fraction("a") == 0.0

    def test_enum_keys_iterate_as_strings(self):
        led = EnergyLedger()
        led.add(EnergyComponent.SEARCHLINE, 1.0)
        assert led.components() == (EnergyComponent.SEARCHLINE.value,)
