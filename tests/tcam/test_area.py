"""Tests for the area model."""

from __future__ import annotations

import pytest

from repro.errors import TCAMError
from repro.tcam.area import TECH_45NM, TechNode, cell_dimensions


class TestTechNode:
    def test_default_node(self):
        assert TECH_45NM.feature_size == pytest.approx(45e-9)
        assert TECH_45NM.vdd_nominal == pytest.approx(0.9)

    def test_area_conversion(self):
        assert TECH_45NM.area_m2(100.0) == pytest.approx(100 * (45e-9) ** 2)

    def test_rejects_bad_feature(self):
        with pytest.raises(TCAMError):
            TechNode("bad", 0.0, 0.9)

    def test_rejects_bad_area(self):
        with pytest.raises(TCAMError):
            TECH_45NM.area_m2(0.0)


class TestCellDimensions:
    def test_aspect_ratio(self):
        w, h = cell_dimensions(100.0, TECH_45NM)
        assert w / h == pytest.approx(2.0)

    def test_area_preserved(self):
        w, h = cell_dimensions(331.0, TECH_45NM)
        assert w * h == pytest.approx(TECH_45NM.area_m2(331.0))

    def test_bigger_cell_bigger_dims(self):
        w1, h1 = cell_dimensions(74.0, TECH_45NM)
        w2, h2 = cell_dimensions(331.0, TECH_45NM)
        assert w2 > w1 and h2 > h1
