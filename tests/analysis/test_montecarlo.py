"""Tests for the Monte-Carlo margin engine."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import obs
from repro.analysis import montecarlo as mc_mod
from repro.analysis.margin import worst_case_margin
from repro.analysis.montecarlo import run_margin_mc
from repro.analysis.montecarlo_array import critical_keys, run_array_mc
from repro.core import build_array, get_design
from repro.devices.variability import NO_VARIATION, NOMINAL_VARIATION
from repro.errors import AnalysisError
from repro.parallel import chunk_bounds, spawn_seeds
from repro.tcam import ArrayGeometry, random_word
from repro.tcam.array import RK4_GRID_POINTS

GEO = ArrayGeometry(8, 32)


@pytest.fixture(scope="module")
def fefet_arr():
    return build_array(get_design("fefet2t"), GEO)


class TestBasics:
    def test_no_variation_is_deterministic(self, fefet_arr):
        mc = run_margin_mc(fefet_arr, NO_VARIATION, n_samples=20)
        assert mc.margin_sigma == pytest.approx(0.0, abs=1e-12)
        assert mc.failure_rate == 0.0

    def test_no_variation_matches_nominal_margin(self, fefet_arr):
        mc = run_margin_mc(fefet_arr, NO_VARIATION, n_samples=5)
        assert mc.margin_mean == pytest.approx(fefet_arr.sense_margin(), rel=1e-6)

    def test_seeded_runs_reproducible(self, fefet_arr):
        a = run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=50, seed=7)
        b = run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=50, seed=7)
        assert np.array_equal(a.margins, b.margins)

    def test_different_seeds_differ(self, fefet_arr):
        a = run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=50, seed=7)
        b = run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=50, seed=8)
        assert not np.array_equal(a.margins, b.margins)

    def test_variation_spreads_margins(self, fefet_arr):
        mc = run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=100)
        assert mc.margin_sigma > 0.01

    def test_percentiles_ordered(self, fefet_arr):
        mc = run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=100)
        assert mc.margin_percentile(1) <= mc.margin_percentile(50) <= mc.margin_percentile(99)

    def test_percentile_range_checked(self, fefet_arr):
        mc = run_margin_mc(fefet_arr, NO_VARIATION, n_samples=5)
        with pytest.raises(AnalysisError):
            mc.margin_percentile(101)

    def test_rejects_race_arrays(self):
        arr = build_array(get_design("fefet_cr"), GEO)
        with pytest.raises(AnalysisError):
            run_margin_mc(arr, NOMINAL_VARIATION, n_samples=5)

    def test_rejects_nand_arrays(self):
        """A NAND string has no precharge/1-miss corner: typed error, not
        a missing attribute."""
        arr = build_array(get_design("fefet_nand"), ArrayGeometry(4, 8))
        with pytest.raises(AnalysisError, match="precharge"):
            run_margin_mc(arr, NOMINAL_VARIATION, n_samples=5)

    def test_rejects_zero_samples(self, fefet_arr):
        with pytest.raises(AnalysisError):
            run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=0)


class TestDesignComparisons:
    def test_lv_margin_mean_smaller_than_full_swing(self):
        full = build_array(get_design("fefet2t"), GEO)
        lv = build_array(get_design("fefet2t_lv"), GEO)
        mc_full = run_margin_mc(full, NOMINAL_VARIATION, n_samples=100)
        mc_lv = run_margin_mc(lv, NOMINAL_VARIATION, n_samples=100)
        assert mc_lv.margin_mean < mc_full.margin_mean

    def test_huge_variation_causes_failures(self, fefet_arr):
        wild = NOMINAL_VARIATION.scaled(10.0)
        mc = run_margin_mc(fefet_arr, wild, n_samples=200)
        assert mc.failure_rate > 0.0

    def test_failure_rate_monotone_in_sigma_scale(self, fefet_arr):
        rates = []
        for scale in (1.0, 5.0, 12.0):
            mc = run_margin_mc(
                fefet_arr, NOMINAL_VARIATION.scaled(scale), n_samples=200, seed=3
            )
            rates.append(mc.failure_rate)
        assert rates[0] <= rates[1] <= rates[2]


PRECHARGE_DESIGNS = ("cmos16t", "reram2t2r", "fefet2t", "fefet2t_lv")


def _per_sample_margins(array, spec, n_samples, seed, n_slope=1.35, temperature_k=300.0):
    """The per-sample oracle: the engine's chunked draw order, with one
    scalar :func:`worst_case_margin` evaluation per sample."""
    cols = array.geometry.cols
    v_pre = array.precharge.target_voltage()
    v_ref = array.sense_amp.v_ref
    margins, failures = [], []
    bounds = chunk_bounds(n_samples, mc_mod.MC_CHUNK_SAMPLES)
    for seed_seq, (lo, hi) in zip(spawn_seeds(seed, len(bounds)), bounds):
        rng = np.random.default_rng(seed_seq)
        for _ in range(hi - lo):
            sigma_vt, sigma_sa = spec.sigma_vt_fefet, spec.sa_offset_sigma
            dvt = float(rng.normal(0.0, sigma_vt)) if sigma_vt else 0.0
            leak = mc_mod._leak_scale_factor(spec, cols, n_slope, temperature_k, rng)
            sa_off = float(rng.normal(0.0, sigma_sa)) if sigma_sa else 0.0
            corner = worst_case_margin(
                array.cell,
                array.c_ml,
                cols,
                v_pre,
                array.vdd,
                min(max(v_ref + sa_off, 1e-3), v_pre - 1e-3),
                array.t_eval,
                pulldown_vt_offset=dvt,
                leak_scale=leak,
            )
            margins.append(corner.margin)
            failures.append(not corner.functional)
    return np.array(margins), np.array(failures)


class TestStackedOracle:
    """The stacked chunk pass equals the per-sample scalar margin, bit for bit."""

    @pytest.mark.parametrize("scale", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("design", PRECHARGE_DESIGNS)
    def test_equals_per_sample_worst_case_margin(self, design, scale, monkeypatch):
        # Small chunks: 40 samples span two full chunks and a partial one.
        monkeypatch.setattr(mc_mod, "MC_CHUNK_SAMPLES", 16)
        array = build_array(get_design(design), ArrayGeometry(8, 16))
        spec = NOMINAL_VARIATION.scaled(scale)
        mc = run_margin_mc(array, spec, n_samples=40, seed=7)
        margins, failures = _per_sample_margins(array, spec, 40, 7)
        assert np.array_equal(mc.margins, margins)
        assert np.array_equal(mc.failures, failures)
        if scale == 10.0:
            assert failures.any()

    def test_partial_last_chunk_at_full_chunk_size(self):
        array = build_array(get_design("fefet2t"), ArrayGeometry(8, 16))
        spec = NOMINAL_VARIATION.scaled(6.0)
        n_samples = mc_mod.MC_CHUNK_SAMPLES + 5
        mc = run_margin_mc(array, spec, n_samples=n_samples, seed=11)
        margins, failures = _per_sample_margins(array, spec, n_samples, 11)
        assert np.array_equal(mc.margins, margins)
        assert np.array_equal(mc.failures, failures)


def _margin_mc(**kwargs):
    array = build_array(get_design("fefet2t"), ArrayGeometry(4, 8))
    return run_margin_mc(array, NOMINAL_VARIATION, **kwargs)


def _array_mc(**kwargs):
    rng = np.random.default_rng(0)
    words = [random_word(8, rng) for _ in range(4)]
    keys = critical_keys(words, rng)
    return run_array_mc(ArrayGeometry(4, 8), NOMINAL_VARIATION, words, keys, **kwargs)


class TestTypedCountErrors:
    @pytest.mark.parametrize(
        "run, kwargs, api",
        [
            (_margin_mc, {"n_samples": 2.5}, "run_margin_mc: n_samples"),
            (_margin_mc, {"n_samples": True}, "run_margin_mc: n_samples"),
            (_margin_mc, {"n_samples": np.float64(3.0)}, "run_margin_mc: n_samples"),
            (_margin_mc, {"n_samples": -2}, "run_margin_mc: n_samples"),
            (_array_mc, {"n_instances": 2.5}, "run_array_mc: n_instances"),
            (_array_mc, {"n_instances": True}, "run_array_mc: n_instances"),
            (_array_mc, {"n_instances": 0}, "run_array_mc: n_instances"),
        ],
        ids=[
            "margin-float", "margin-bool", "margin-np-float", "margin-negative",
            "array-float", "array-bool", "array-zero",
        ],
    )
    def test_bad_count_names_the_api(self, run, kwargs, api):
        with pytest.raises(AnalysisError, match=re.escape(api)):
            run(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        assert _margin_mc(n_samples=np.int64(3)).margins.shape == (3,)
        assert _array_mc(n_instances=np.int32(2)).n_searches == 16


class TestObservability:
    def test_one_margin_span_keeps_rk4_metrics(self, fefet_arr, monkeypatch):
        monkeypatch.setattr(mc_mod, "MC_CHUNK_SAMPLES", 16)
        with obs.observe() as sess:
            run_margin_mc(fefet_arr, NOMINAL_VARIATION, n_samples=40, seed=3)
        (root,) = sess.spans
        assert root.name == "mc.margin"
        assert root.attrs == {"n_samples": 40, "chunks": 3}
        assert root.wall_time > 0.0
        snap = sess.metrics.snapshot()
        # One stacked pass per chunk, two lines (match, 1-miss) per sample.
        assert snap["rk4.batched_integrations"] == 3
        assert snap["rk4.steps"] == (RK4_GRID_POINTS - 1) * 2 * 40
