"""Registered cells: array I-V is the scalar I-V, element for element."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcam.cells import get_cell, list_cells

CELLS = list(list_cells())

# Fractions of the span [-0.2, vdd + 0.2]; ``None`` stands for exactly 0 V.
_fractions = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(None)),
    min_size=1,
    max_size=40,
)
_offsets = st.floats(min_value=-0.3, max_value=0.3)


def _methods(cell):
    """``(label, f(v, vt_offset))`` for every compare-path current."""
    methods = [("i_pulldown", cell.i_pulldown), ("i_leak", cell.i_leak)]
    if hasattr(cell, "i_pulldown_level"):
        for level in (1, cell.n_levels):
            methods.append(
                (
                    f"i_pulldown_level[{level}]",
                    lambda v, dvt, level=level: cell.i_pulldown_level(v, level, dvt),
                )
            )
    return methods


@pytest.mark.parametrize("name", CELLS)
@given(fractions=_fractions, dvt=_offsets)
@settings(max_examples=25, deadline=None)
def test_scalar_call_is_array_element_bitwise(name, fractions, dvt):
    """v drawn over [-0.2, vdd + 0.2] (``None`` draws exactly 0 V), and a
    drawn vt_offset."""
    cell = get_cell(name)
    span = cell.v_search + 0.4
    v = np.array([0.0 if f is None else -0.2 + f * span for f in fractions])
    for label, current in _methods(cell):
        stacked = current(v, dvt)
        assert stacked.shape == v.shape, label
        for k, v_k in enumerate(v.tolist()):
            assert current(v_k, dvt) == stacked[k], (label, v_k)


@pytest.mark.parametrize("name", CELLS)
def test_non_positive_voltage_draws_no_current(name):
    cell = get_cell(name)
    v = np.array([-0.2, -1e-9, 0.0, 0.5])
    for label, current in _methods(cell):
        got = current(v, 0.0)
        assert np.array_equal(got[:3], np.zeros(3)), label
        assert got[3] > 0.0, label
        assert current(-0.1, 0.0) == 0.0, label


@pytest.mark.parametrize("name", CELLS)
def test_offset_array_broadcasts_against_voltages(name):
    """A (n, 1) voltage column against (n, w) offsets: one call per stage
    for every weakened pull-down of a stacked fault-signature set."""
    cell = get_cell(name)
    v = np.array([0.3, 0.7])
    offsets = np.array([[0.0, 0.1, 0.2], [0.05, 0.0, -0.1]])
    got = cell.i_pulldown(v[:, np.newaxis], offsets)
    assert got.shape == (2, 3)
    for r in range(2):
        for c in range(3):
            assert got[r, c] == cell.i_pulldown(float(v[r]), float(offsets[r, c]))
