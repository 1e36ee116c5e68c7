"""Tests for the error hierarchy."""

from __future__ import annotations

import pytest

from repro.errors import (
    AnalysisError,
    CapacityError,
    CircuitError,
    DesignError,
    DeviceError,
    ReproError,
    TCAMError,
    WorkloadError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            DeviceError,
            CircuitError,
            TCAMError,
            CapacityError,
            DesignError,
            AnalysisError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_capacity_is_tcam_error(self):
        assert issubclass(CapacityError, TCAMError)

    def test_catching_base_catches_everything(self):
        with pytest.raises(ReproError):
            raise WorkloadError("boom")
