"""Tests for the trace-span tree and its energy-exactness machinery."""

from __future__ import annotations

import pytest

from repro.energy.accounting import EnergyLedger
from repro.errors import ReproError
from repro.obs.span import Span, Tracer


class TestSpan:
    def test_rejects_empty_name(self):
        with pytest.raises(ReproError):
            Span("")

    def test_annotate_merges_attrs(self):
        s = Span("x", {"a": 1})
        s.annotate(b=2)
        assert s.attrs == {"a": 1, "b": 2}

    def test_set_delay_rejects_negative(self):
        with pytest.raises(ReproError):
            Span("x").set_delay(-1.0)

    def test_add_energy_copies(self):
        led = EnergyLedger({"sl": 1.0})
        s = Span("x")
        s.add_energy(led)
        led.add("sl", 1.0)
        assert s.energy.total == 1.0

    def test_child_appends_in_order(self):
        s = Span("root")
        s.child("a")
        s.child("b")
        assert [c.name for c in s.children] == ["a", "b"]

    def test_total_energy_merges_descendants(self):
        s = Span("root")
        s.add_energy(EnergyLedger({"a": 1.0}))
        s.child("c1").add_energy(EnergyLedger({"a": 2.0, "b": 1.0}))
        s.child("c2").add_energy(EnergyLedger({"b": 4.0}))
        total = s.total_energy()
        assert total.as_dict() == {"a": 3.0, "b": 5.0}

    def test_walk_preorder_depths(self):
        s = Span("root")
        c = s.child("a")
        c.child("aa")
        s.child("b")
        assert [(d, n.name) for d, n in s.walk()] == [
            (0, "root"), (1, "a"), (2, "aa"), (1, "b"),
        ]

    def test_to_dict_round_trip(self):
        s = Span("root", {"k": 1})
        s.child("a")
        d = s.to_dict()
        assert d["name"] == "root"
        assert d["attrs"] == {"k": 1}
        assert d["children"][0]["name"] == "a"


class TestSplitEnergy:
    def test_groups_components_in_insertion_order(self):
        led = EnergyLedger({"sl": 1.0, "ml_precharge": 2.0, "ml_dissipation": 3.0})
        s = Span("root")
        s.split_energy(led, {"sl": "drive", "ml_precharge": "ml", "ml_dissipation": "ml"})
        assert [c.name for c in s.children] == ["drive", "ml"]
        assert s.children[1].energy.as_dict() == {"ml_precharge": 2.0, "ml_dissipation": 3.0}

    def test_unmapped_components_land_in_other(self):
        s = Span("root")
        s.split_energy(EnergyLedger({"mystery": 1.0}), {})
        assert [c.name for c in s.children] == ["other"]

    def test_split_is_exact(self):
        led = EnergyLedger({"a": 0.1, "b": 0.2, "c": 0.30000000000000004})
        s = Span("root")
        s.split_energy(led, {"a": "x", "c": "x"})
        assert s.total_energy().as_dict() == led.as_dict()
        assert s.total_energy().total == led.total

    def test_split_does_not_mutate_source(self):
        led = EnergyLedger({"a": 1.0})
        Span("root").split_energy(led, {})
        assert led.as_dict() == {"a": 1.0}


class TestTracer:
    def test_nesting_builds_tree(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        assert len(tr.roots) == 1
        assert tr.roots[0].name == "outer"
        assert tr.roots[0].children[0].name == "inner"

    def test_sequential_spans_become_separate_roots(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        assert [r.name for r in tr.roots] == ["a", "b"]

    def test_current_tracks_stack(self):
        tr = Tracer()
        assert tr.current is None
        with tr.span("a") as sp:
            assert tr.current is sp
        assert tr.current is None

    def test_wall_time_measured(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        assert tr.roots[0].wall_time >= 0.0

    def test_root_recorded_even_on_exception(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("a"):
                raise ValueError("boom")
        assert [r.name for r in tr.roots] == ["a"]

    def test_clear_drops_roots(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        tr.clear()
        assert tr.roots == []
