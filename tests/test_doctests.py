"""Runs the doctest examples embedded in module docstrings.

Keeps the inline usage examples honest: a doctest that drifts from the
implementation fails the suite.
"""

from __future__ import annotations

import doctest

import pytest

import repro.analysis.analytic
import repro.core.segmentation
import repro.energy.accounting
import repro.tcam.area
import repro.tcam.priority
import repro.tcam.trit
import repro.units
import repro.workloads.packetclass

MODULES = [
    repro.units,
    repro.energy.accounting,
    repro.tcam.trit,
    repro.tcam.area,
    repro.tcam.priority,
    repro.core.segmentation,
    repro.workloads.packetclass,
    repro.analysis.analytic,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests to run"
