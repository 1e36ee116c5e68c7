"""Tests for the derived figures of merit."""

from __future__ import annotations

import pytest

from repro.analysis.throughput import ThroughputReport, characterize
from repro.core import build_array, get_design
from repro.errors import AnalysisError
from repro.circuits.senseamp import VoltageSenseAmp
from repro.tcam import ArrayGeometry, TCAMArray
from repro.tcam.cells import FeFET2TCell

GEO = ArrayGeometry(16, 32)


class TestReportAlgebra:
    def test_derived_quantities(self):
        r = ThroughputReport(energy_per_search=2e-12, cycle_time=1e-9, search_delay=5e-10)
        assert r.throughput == pytest.approx(1e9)
        assert r.power_at_rate == pytest.approx(2e-3)
        assert r.edp == pytest.approx(1e-21)
        assert r.searches_per_joule == pytest.approx(5e11)


class TestCharacterize:
    def test_positive_metrics_for_every_design(self, any_design):
        array = build_array(any_design, GEO)
        report = characterize(array, n_searches=2)
        assert report.energy_per_search > 0.0
        assert report.cycle_time > 0.0
        assert report.search_delay > 0.0

    def test_deterministic_under_seed(self):
        a = characterize(build_array(get_design("fefet2t"), GEO), n_searches=3)
        b = characterize(build_array(get_design("fefet2t"), GEO), n_searches=3)
        assert a.energy_per_search == b.energy_per_search

    def test_fefet_edp_beats_cmos(self):
        fefet = characterize(build_array(get_design("fefet2t"), GEO), n_searches=3)
        cmos = characterize(build_array(get_design("cmos16t"), GEO), n_searches=3)
        assert fefet.edp < cmos.edp

    def test_rejects_zero_searches(self):
        with pytest.raises(AnalysisError):
            characterize(build_array(get_design("fefet2t"), GEO), n_searches=0)


class TestCanonicalEvaluator:
    """``characterize`` answers its keys in one ``search_batch`` call."""

    def test_equals_per_key_reference(self, any_design, per_key_search):
        fast = characterize(build_array(any_design, GEO), n_searches=3, seed=[7, 1])
        with per_key_search():
            ref = characterize(build_array(any_design, GEO), n_searches=3, seed=[7, 1])
        assert fast == ref
        assert fast.functional_errors == 0

    def test_seed_key_list_is_a_seed(self):
        def run(seed):
            return characterize(build_array(get_design("fefet2t"), GEO), 2, seed=seed)

        assert run([3, 4]) == run([3, 4])
        assert run([3, 4]) != run([4, 3])

    def test_counts_functional_errors_instead_of_raising(self, per_key_search):
        """A strobe long before any line discharges reads every row as a
        match: the report carries the mis-sensed rows."""

        def broken():
            return TCAMArray(
                FeFET2TCell(),
                GEO,
                sense_amp=VoltageSenseAmp(v_ref=0.45, offset=-0.449),
                t_eval=1e-12,
            )

        report = characterize(broken(), n_searches=3)
        assert report.functional_errors > 0
        with per_key_search():
            assert characterize(broken(), n_searches=3) == report
