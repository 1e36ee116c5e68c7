"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import all_designs, build_array, get_design
from repro.tcam import ArrayGeometry, TCAMArray, reference
from repro.tcam.cells import get_cell


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_geometry() -> ArrayGeometry:
    """A small array shape that keeps per-test runtime negligible."""
    return ArrayGeometry(rows=8, cols=16)


@pytest.fixture
def medium_geometry() -> ArrayGeometry:
    """A moderately sized shape for integration-style tests."""
    return ArrayGeometry(rows=32, cols=32)


@pytest.fixture(params=["cmos16t", "reram2t2r", "fefet2t"])
def any_cell(request):
    """One cell descriptor per technology (parametrized)."""
    return get_cell(request.param)


@pytest.fixture(params=[spec.name for spec in all_designs()])
def any_design(request):
    """Every registered design (parametrized)."""
    return get_design(request.param)


@pytest.fixture
def fefet_array(small_geometry):
    """A small plain FeFET array."""
    return build_array(get_design("fefet2t"), small_geometry)


def _per_key_loop(scalar):
    """A ``*_batch`` method answering its keys one by one with ``scalar``."""

    def batch(self, keys, *args, **kwargs):
        return [scalar(self, key, *args, **kwargs) for key in keys]

    return batch


_SEARCHES = ("search", "nearest_match", "threshold_match", "topk_match")


@pytest.fixture
def per_key_search(monkeypatch):
    """A context manager inside which every ``TCAMArray`` search, scalar
    or batch, exact or distance, is answered by the per-key reference
    functions of :mod:`repro.tcam.reference`: the oracle the kernel paths
    must equal bit for bit.  (The NAND array's ``search_batch`` already
    is a per-key loop over its own scalar ``search``.)"""

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as m:
            for name in _SEARCHES:
                scalar = getattr(reference, name)
                m.setattr(TCAMArray, name, scalar)
                m.setattr(TCAMArray, name + "_batch", _per_key_loop(scalar))
            yield

    return patched
