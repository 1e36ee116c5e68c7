"""Tests for the workload-driven design advisor."""

from __future__ import annotations

import pytest

from repro.core.advisor import Candidate, WorkloadProfile, advise
from repro.errors import DesignError

SMALL = dict(rows=16, cols=24)


def _profile(**overrides) -> WorkloadProfile:
    base = dict(SMALL)
    base.update(overrides)
    return WorkloadProfile(**base)


class TestProfileValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(DesignError):
            WorkloadProfile(rows=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(DesignError):
            WorkloadProfile(searches_per_second=0.0)

    def test_rejects_bad_latency(self):
        with pytest.raises(DesignError):
            WorkloadProfile(max_latency=0.0)


class TestAdvise:
    @pytest.fixture(scope="class")
    def default_rec(self):
        return advise(_profile())

    def test_every_design_evaluated(self, default_rec):
        assert len(default_rec.candidates) == 6

    def test_best_is_feasible_and_minimal(self, default_rec):
        feasible = [c for c in default_rec.candidates if c.feasible]
        assert default_rec.best in feasible
        assert default_rec.best.total_energy_per_search == min(
            c.total_energy_per_search for c in feasible
        )

    def test_best_is_an_energy_aware_design(self, default_rec):
        """With generous constraints, a proposed/extension design must win
        -- the library's whole thesis in one assertion."""
        assert default_rec.best.design in ("fefet2t_lv", "fefet_cr", "fefet_nand")

    def test_latency_bound_excludes_slow_designs(self):
        rec = advise(_profile(max_latency=4e-10))
        assert rec.best.search_delay <= 4e-10
        slow = [c for c in rec.candidates if c.search_delay > 4e-10]
        assert all(not c.feasible for c in slow)

    def test_nonvolatile_requirement_excludes_cmos(self):
        rec = advise(_profile(nonvolatile_required=True))
        cmos = next(c for c in rec.candidates if c.design == "cmos16t")
        assert cmos.excluded_reason == "volatile storage"

    def test_impossible_profile_raises_with_reasons(self):
        with pytest.raises(DesignError, match="no design satisfies"):
            advise(_profile(max_latency=1e-12))

    def test_low_rate_profile_weighs_standby(self):
        fast = advise(_profile(searches_per_second=1e8))
        slow = advise(_profile(searches_per_second=1e3))
        best_fast = fast.best.total_energy_per_search
        best_slow = slow.best.total_energy_per_search
        assert best_slow > best_fast  # idle leakage amortizes in

    def test_equals_per_key_reference(self, per_key_search):
        """Every design answers its keys in one ``search_batch`` call; the
        per-key scalar loop gives the same recommendation.  (The margin
        MC is off: it reads no search outcome and dominates run time.)"""
        profile = _profile(rows=8, cols=16, require_failure_free_mc=False)
        fast = advise(profile)
        with per_key_search():
            ref = advise(profile)
        assert fast == ref
        assert len(ref.candidates) == 6

    def test_candidate_feasible_property(self):
        ok = Candidate("x", 1.0, 1.0, True, True, None)
        bad = Candidate("x", 1.0, 1.0, False, True, "latency")
        assert ok.feasible and not bad.feasible
