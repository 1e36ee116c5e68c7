"""Tests for the figure-series container."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.reporting.series import FigureSeries


def _fig() -> FigureSeries:
    return FigureSeries(
        title="Energy vs width",
        x_label="width",
        y_label="energy [J]",
        x=[8, 16, 32],
        y_unit="J",
    )


class TestFigureSeries:
    def test_add_and_read_series(self):
        fig = _fig()
        fig.add_series("cmos", [1e-15, 2e-15, 4e-15])
        assert fig.series("cmos") == [1e-15, 2e-15, 4e-15]
        assert fig.series_names == ["cmos"]

    def test_length_mismatch_rejected(self):
        fig = _fig()
        with pytest.raises(ReproError):
            fig.add_series("bad", [1.0])

    def test_duplicate_name_rejected(self):
        fig = _fig()
        fig.add_series("a", [1, 2, 3])
        with pytest.raises(ReproError):
            fig.add_series("a", [1, 2, 3])

    def test_unknown_series_rejected(self):
        with pytest.raises(ReproError):
            _fig().series("ghost")

    def test_text_rendering_engineering_units(self):
        fig = _fig()
        fig.add_series("cmos", [1e-15, 2e-15, 4e-15])
        text = fig.to_text()
        assert "1 fJ" in text
        assert "width" in text
        assert "cmos" in text

    def test_text_without_series_rejected(self):
        with pytest.raises(ReproError):
            _fig().to_text()

    def test_plain_numbers_without_unit(self):
        fig = FigureSeries(title="t", x_label="x", y_label="y", x=[1.0])
        fig.add_series("s", [0.25])
        assert "0.25" in fig.to_text()
