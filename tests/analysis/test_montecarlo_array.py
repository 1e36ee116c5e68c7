"""Tests for the full per-cell Monte-Carlo array simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis.montecarlo_array import (
    ArrayMCResult,
    SampledFeFETArray,
    critical_keys,
)
from repro.devices.mosfet import ekv_current
from repro.devices.variability import NOMINAL_VARIATION, NO_VARIATION, VariationSpec
from repro.errors import AnalysisError, TCAMError
from repro.tcam import ArrayGeometry, random_word
from repro.units import thermal_voltage

GEO = ArrayGeometry(8, 24)


def _campaign(spec, seed=1, rows=8, cols=24, per_word=2):
    rng = np.random.default_rng(0)
    words = [random_word(cols, rng, x_fraction=0.2) for _ in range(rows)]
    keys = critical_keys(words, rng, per_word=per_word)
    array = SampledFeFETArray(
        ArrayGeometry(rows, cols), spec, np.random.default_rng(seed)
    )
    array.load(words)
    return array.run_campaign(keys)


class TestVectorizedEKV:
    def test_matches_scalar_elementwise(self):
        """An array call is bit for bit the scalar call per element."""
        phi = thermal_voltage(300.0)
        vts = np.array([-0.1, 0.2, 0.4, 0.9, 1.6])
        vec = ekv_current(1.1, 0.6, vts, 1e-3, 1.35, phi, 0.08)
        for vt, i in zip(vts, vec):
            assert i == ekv_current(1.1, 0.6, float(vt), 1e-3, 1.35, phi, 0.08)

    def test_rejects_negative_vds(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            ekv_current(1.0, -0.1, np.array([0.4]), 1e-3, 1.3, 0.026)


class TestCriticalKeys:
    def test_contains_exact_match_per_word(self, rng):
        words = [random_word(16, rng, x_fraction=0.3) for _ in range(4)]
        keys = critical_keys(words, rng, per_word=2)
        assert len(keys) == 8
        for word, key in zip(words, keys[::2]):
            assert word.matches(key)
            assert str(key).count("X") == 0

    def test_near_keys_at_distance_one(self, rng):
        words = [random_word(16, rng) for _ in range(4)]
        keys = critical_keys(words, rng, per_word=2)
        for word, near in zip(words, keys[1::2]):
            assert word.mismatch_count(near) == 1

    def test_rejects_bad_per_word(self, rng):
        with pytest.raises(AnalysisError):
            critical_keys([random_word(8, rng)], rng, per_word=0)


class TestSampledArray:
    def test_no_variation_no_errors(self):
        result = _campaign(NO_VARIATION)
        assert result.wrong_rows == 0
        assert result.wrong_searches == 0

    def test_nominal_corner_clean(self):
        result = _campaign(NOMINAL_VARIATION)
        assert result.wrong_rows == 0

    def test_errors_grow_with_sigma(self):
        results = [_campaign(NOMINAL_VARIATION.scaled(s)) for s in (1.0, 6.0, 10.0)]
        rates = [r.wrong_rows / r.n_row_decisions for r in results]
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > 0.0

    def test_errors_confined_to_critical_distances(self):
        result = _campaign(NOMINAL_VARIATION.scaled(10.0))
        assert result.wrong_rows > 0
        # Every wrong decision sits at distance 0 (match lost) or 1
        # (near-miss misread); deep misses are unconditionally safe.
        assert set(result.errors_by_distance) <= {0, 1}

    def test_deterministic_under_seed(self):
        a = _campaign(NOMINAL_VARIATION.scaled(8.0), seed=3)
        b = _campaign(NOMINAL_VARIATION.scaled(8.0), seed=3)
        assert a.wrong_rows == b.wrong_rows

    def test_different_instances_differ(self):
        a = _campaign(NOMINAL_VARIATION.scaled(8.0), seed=3)
        b = _campaign(NOMINAL_VARIATION.scaled(8.0), seed=4)
        # Not guaranteed per-seed, but two instances at high sigma rarely
        # produce identical error maps; allow equality of totals only.
        assert a.n_row_decisions == b.n_row_decisions

    def test_load_validates(self):
        array = SampledFeFETArray(GEO, NO_VARIATION, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        with pytest.raises(AnalysisError, match="SampledFeFETArray.load"):
            array.load([random_word(24, rng)] * 9)
        with pytest.raises(TCAMError, match="SampledFeFETArray.load"):
            array.load([random_word(8, rng)])

    def test_bad_word_stores_no_row(self):
        """A bad word fails the whole load before any row is stored, and
        is reported the way ``run_campaign`` reports a bad key."""
        array = SampledFeFETArray(GEO, NO_VARIATION, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        before = array._stored.copy()
        words = [random_word(24, rng), random_word(24, rng), random_word(6, rng)]
        with pytest.raises(TCAMError, match="SampledFeFETArray.load"):
            array.load(words)
        assert np.array_equal(array._stored, before)

    def test_empty_campaign_rejected(self):
        array = SampledFeFETArray(GEO, NO_VARIATION, np.random.default_rng(0))
        with pytest.raises(AnalysisError):
            array.run_campaign([])


#: Corners for the stacking checks: nominal, a scaled-up corner where
#: threshold offsets flip decisions, and one whose SA offsets (0.25 V)
#: alone flip them, so a line strobed against another row's offset shows.
CORNERS = {
    "nominal": NOMINAL_VARIATION,
    "sigma-x10": NOMINAL_VARIATION.scaled(10.0),
    "sa-offset": VariationSpec(sigma_vt_fefet=0.0, sa_offset_sigma=0.25),
}


def _sampled(spec, rows, cols, seed=3):
    rng = np.random.default_rng(rows * cols)
    words = [random_word(cols, rng, x_fraction=0.2) for _ in range(rows)]
    keys = critical_keys(words, rng, per_word=2)
    keys.append(random_word(cols, rng, x_fraction=0.5))
    array = SampledFeFETArray(ArrayGeometry(rows, cols), spec, np.random.default_rng(seed))
    array.load(words[:-1])  # one row left unloaded: all X, a fully masked line
    return array, keys


class TestStackedCampaign:
    """A block campaign equals its keys run as one-key blocks."""

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    @pytest.mark.parametrize("rows, cols", [(8, 16), (16, 32)])
    def test_block_equals_one_key_blocks(self, corner, rows, cols):
        array, keys = _sampled(CORNERS[corner], rows, cols)
        block = np.array([k.as_array() for k in keys])
        stacked = array._physical_row_decisions(block)
        one_key = np.vstack(
            [array._physical_row_decisions(block[i : i + 1]) for i in range(len(keys))]
        )
        assert np.array_equal(stacked, one_key)

        result = array.run_campaign(keys)
        singles = [array.run_campaign([k]) for k in keys]
        by_distance: dict[int, int] = {}
        for r in singles:
            for d, n in r.errors_by_distance.items():
                by_distance[d] = by_distance.get(d, 0) + n
        assert result == ArrayMCResult(
            n_searches=len(keys),
            n_row_decisions=len(keys) * rows,
            wrong_rows=sum(r.wrong_rows for r in singles),
            wrong_searches=sum(r.wrong_searches for r in singles),
            errors_by_distance=dict(sorted(by_distance.items())),
        )
        if corner != "nominal":
            assert result.wrong_rows > 0

    def test_key_widths_checked_before_any_integration(self):
        array, keys = _sampled(NOMINAL_VARIATION, 8, 16)
        bad = keys + [random_word(12, np.random.default_rng(1))]
        with obs.observe() as sess:
            with pytest.raises(TCAMError, match="run_campaign"):
                array.run_campaign(bad)
        assert "rk4.batched_integrations" not in sess.metrics.snapshot()

    def test_one_row_batch_per_campaign(self):
        array, keys = _sampled(NOMINAL_VARIATION, 8, 16)
        with obs.observe() as sess:
            array.run_campaign(keys)
        (root,) = sess.spans
        assert [c.name for c in root.children] == ["mc.row_batch"]
        assert root.children[0].attrs == {"keys": len(keys), "rows": 8}
        snap = sess.metrics.snapshot()
        assert snap["rk4.batched_integrations"] == 1
        assert snap["mc.row_decisions"] == len(keys) * 8
        assert snap["mc.rows_per_batch"]["max"] == len(keys) * 8
