"""Tests for technique sets and the ablation grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.selective import TechniqueSet, technique_grid
from repro.errors import DesignError
from repro.tcam import ArrayGeometry, SegmentedBank, TCAMArray, random_word

GEO = ArrayGeometry(16, 32)


class TestTechniqueSet:
    def test_base_label(self):
        assert TechniqueSet().label == "base"

    def test_combined_label(self):
        t = TechniqueSet(low_voltage_ml=True, segmentation=True, early_termination=True)
        assert t.label == "LV+SEG+ET"

    def test_early_termination_requires_segmentation(self):
        with pytest.raises(DesignError):
            TechniqueSet(early_termination=True)

    def test_rejects_bad_probe(self):
        with pytest.raises(DesignError):
            TechniqueSet(segmentation=True, probe_cols=0)

    def test_base_builds_flat_array(self):
        built = TechniqueSet().build(GEO)
        assert isinstance(built, TCAMArray)
        from repro.circuits.precharge import FullSwingPrecharge

        assert isinstance(built.precharge, FullSwingPrecharge)

    def test_lv_builds_clamped_array(self):
        built = TechniqueSet(low_voltage_ml=True).build(GEO)
        from repro.circuits.precharge import ClampedPrecharge

        assert isinstance(built.precharge, ClampedPrecharge)

    def test_segmentation_builds_bank(self):
        built = TechniqueSet(segmentation=True, probe_cols=8).build(GEO)
        assert isinstance(built, SegmentedBank)
        assert built.probe_cols == 8

    def test_lv_seg_bank_uses_clamp_in_both_stages(self):
        built = TechniqueSet(low_voltage_ml=True, segmentation=True).build(GEO)
        from repro.circuits.precharge import ClampedPrecharge

        assert isinstance(built.stages[0].precharge, ClampedPrecharge)
        assert isinstance(built.stages[1].precharge, ClampedPrecharge)

    def test_probe_must_fit_geometry(self):
        with pytest.raises(DesignError):
            TechniqueSet(segmentation=True, probe_cols=32).build(GEO)

    def test_built_objects_search_correctly(self):
        rng = np.random.default_rng(0)
        words = [random_word(32, rng, x_fraction=0.2) for _ in range(16)]
        for techniques in technique_grid():
            built = techniques.build(GEO)
            built.load(words)
            out = built.search(words[3])
            assert out.match_mask[3], techniques.label


class TestGrid:
    def test_six_ablation_points(self):
        assert len(technique_grid()) == 6

    def test_starts_with_base_ends_with_everything(self):
        grid = technique_grid()
        assert grid[0].label == "base"
        assert grid[-1].label == "LV+SEG+ET"

    def test_labels_unique(self):
        labels = [t.label for t in technique_grid()]
        assert len(set(labels)) == len(labels)
