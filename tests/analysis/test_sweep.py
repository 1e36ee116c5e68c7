"""Tests for the generic sweep harness."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import Sweep
from repro.errors import AnalysisError


class TestSweep:
    def test_collects_rows_in_order(self):
        sweep = Sweep(knob="n", values=[1, 2, 3], evaluate=lambda n: {"square": n * n})
        result = sweep.run()
        assert result.column("n") == [1, 2, 3]
        assert result.column("square") == [1, 4, 9]

    def test_series_pairs(self):
        sweep = Sweep(knob="n", values=[2, 4], evaluate=lambda n: {"double": 2 * n})
        result = sweep.run()
        x, y = result.series("double")
        assert x == [2, 4]
        assert y == [4, 8]

    def test_missing_column_raises(self):
        result = Sweep(knob="n", values=[1], evaluate=lambda n: {"a": 1}).run()
        with pytest.raises(AnalysisError):
            result.column("b")

    def test_conflicting_knob_value_raises(self):
        sweep = Sweep(knob="n", values=[1], evaluate=lambda n: {"n": 99})
        with pytest.raises(AnalysisError):
            sweep.run()

    def test_evaluator_may_echo_consistent_knob(self):
        sweep = Sweep(knob="n", values=[1], evaluate=lambda n: {"n": 1, "y": 0})
        assert sweep.run().column("y") == [0]

    def test_empty_values_empty_result(self):
        assert Sweep(knob="n", values=[], evaluate=lambda n: {}).run().rows == ()


def _fail_on_negative(v):
    if v < 0:
        raise RuntimeError("negative knob")
    return {"y": float(v)}


class TestSweepErrorPaths:
    def test_missing_column_names_the_column(self):
        result = Sweep(knob="n", values=[1, 2], evaluate=lambda n: {"a": n}).run()
        with pytest.raises(AnalysisError, match=r"no column 'missing'"):
            result.column("missing")

    def test_series_missing_y_column_raises(self):
        result = Sweep(knob="n", values=[1], evaluate=lambda n: {"a": n}).run()
        with pytest.raises(AnalysisError, match=r"no column 'b'"):
            result.series("b")

    def test_series_on_partial_rows_raises(self):
        # A column present in some rows but not all is still an error.
        result = Sweep(
            knob="n",
            values=[1, 2],
            evaluate=lambda n: {"odd": 1} if n % 2 else {"even": 0},
        ).run()
        with pytest.raises(AnalysisError, match=r"no column 'odd'"):
            result.column("odd")

    def test_evaluator_exception_names_failing_knob_value(self):
        sweep = Sweep(knob="bias", values=[1, -3, 2], evaluate=_fail_on_negative)
        with pytest.raises(AnalysisError, match=r"bias=-3.*negative knob"):
            sweep.run()

    def test_evaluator_exception_preserves_cause_serially(self):
        sweep = Sweep(knob="bias", values=[-1], evaluate=_fail_on_negative)
        with pytest.raises(AnalysisError) as excinfo:
            sweep.run()
        assert isinstance(excinfo.value.__cause__, RuntimeError)
