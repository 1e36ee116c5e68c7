"""Tests for design-space exploration and Pareto extraction."""

from __future__ import annotations

import pytest

from repro.core.dse import DesignPoint, explore
from repro.errors import DesignError
from repro.tcam import ArrayGeometry

GEO = ArrayGeometry(8, 24)


def _point(**overrides) -> DesignPoint:
    base = dict(
        design="x",
        v_ml=None,
        vdd=0.9,
        energy_per_search=1.0,
        search_delay=1.0,
        margin=1.0,
        functional=True,
    )
    base.update(overrides)
    return DesignPoint(**base)


class TestDominance:
    def test_strictly_better_dominates(self):
        a = _point(energy_per_search=0.5)
        b = _point()
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_equal_points_do_not_dominate(self):
        assert not _point().dominates(_point())

    def test_tradeoff_points_incomparable(self):
        a = _point(energy_per_search=0.5, search_delay=2.0)
        b = _point()
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_functional_dominates_broken(self):
        a = _point()
        b = _point(functional=False, energy_per_search=0.1)
        assert a.dominates(b)

    def test_higher_margin_wins(self):
        a = _point(margin=2.0)
        assert a.dominates(_point())


class TestExplore:
    @pytest.fixture(scope="class")
    def result(self):
        return explore(GEO, ml_swings=(0.5, 0.9), n_searches=3)

    def test_point_count(self, result):
        # 5 non-LV designs + 2 LV swings.
        assert len(result.points) == 7

    def test_front_non_empty_and_subset(self, result):
        assert result.front
        assert set(p.design for p in result.front) <= set(p.design for p in result.points)

    def test_front_is_mutually_non_dominated(self, result):
        for p in result.front:
            for q in result.front:
                assert not p.dominates(q) or p is q

    def test_proposed_designs_reach_the_front(self, result):
        """At least one energy-aware design must be Pareto-optimal --
        otherwise the paper has no story."""
        front_designs = {p.design for p in result.front}
        assert front_designs & {"fefet2t_lv", "fefet_cr"}

    def test_cmos_not_lowest_energy(self, result):
        by_design = {p.design: p for p in result.points if p.v_ml in (None, 0.5)}
        e_cmos = by_design["cmos16t"].energy_per_search
        e_lv = min(
            p.energy_per_search for p in result.points if p.design == "fefet2t_lv"
        )
        assert e_lv < e_cmos

    def test_rejects_bad_n_searches(self):
        with pytest.raises(DesignError):
            explore(GEO, n_searches=0)

    def test_equals_per_key_reference(self, result, per_key_search):
        """Every design (LV swings and NAND included) answers its keys in
        one ``search_batch`` call; the per-key scalar loop gives the same
        points and front."""
        with per_key_search():
            ref = explore(GEO, ml_swings=(0.5, 0.9), n_searches=3)
        assert result.points == ref.points
        assert result.front == ref.front
        assert {p.design for p in ref.points} >= {"fefet_nand", "fefet2t_lv", "fefet_cr"}
