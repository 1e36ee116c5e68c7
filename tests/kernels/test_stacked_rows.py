"""Stacked table builds: one RK4 pass per batch, rows equal to lone builds."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import build_array, get_design
from repro.errors import KernelError
from repro.kernels import KernelEngine
from repro.tcam import ArrayGeometry, TCAMArray, random_word
from repro.tcam.cells import get_cell, list_cells


def _array(design="fefet2t", rows=8, cols=12):
    return build_array(get_design(design), ArrayGeometry(rows=rows, cols=cols))


BAD_DRIVEN = [2.5, np.float64(3.0), True, np.bool_(False), "3", None]


class TestTypedDriven:
    @pytest.mark.parametrize("bad", BAD_DRIVEN)
    @pytest.mark.parametrize(
        "call",
        [
            lambda eng, d: eng.row(d),
            lambda eng, d: eng.rows([1, d]),
            lambda eng, d: eng.window_row(d),
        ],
        ids=["engine.row", "engine.rows", "engine.window_row"],
    )
    def test_non_integer_driven_raises_kernel_error(self, call, bad):
        engine = KernelEngine(_array())
        with pytest.raises(KernelError, match="integer"):
            call(engine, bad)
        assert engine.rows_built == 0

    @pytest.mark.parametrize("good", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integers_are_accepted(self, good):
        engine = KernelEngine(_array())
        assert engine.row(good) is engine.row(3)
        assert engine.window_row(good) is engine.window_row(3)


class TestStackedBuild:
    @pytest.mark.parametrize("design", ["fefet2t", "cmos16t", "fefet_cr"])
    def test_rows_built_together_equal_rows_built_alone(self, design):
        together = KernelEngine(_array(design))
        alone = KernelEngine(_array(design))
        drivens = [7, 0, 12, 3, 7]
        built = together.rows(drivens)
        for d, row in zip(drivens, built):
            lone = alone.row(d)
            for name, field in vars(row).items():
                assert np.array_equal(field, getattr(lone, name)), (d, name)
                assert field.dtype == getattr(lone, name).dtype
        assert built[0] is built[4]
        assert together.rows_built == 4

    def test_precompute_is_one_integration(self):
        engine = KernelEngine(_array())
        with obs.observe() as session:
            engine.precompute()
        snap = session.metrics.snapshot()
        assert snap["rk4.batched_integrations"] == 1.0
        assert engine.rows_built == 13

    def test_batch_with_several_missing_rows_integrates_once(self):
        array = _array(rows=16, cols=12)
        rng = np.random.default_rng(3)
        for r in range(16):
            array.write(r, random_word(12, rng, x_fraction=0.2))
        keys = [random_word(12, rng, x_fraction=x) for x in (0.0, 0.25, 0.5, 0.75)]
        drivens = {int(np.count_nonzero(k.as_array() != 2)) for k in keys}
        assert len(drivens) > 1
        with obs.observe() as session:
            array.search_batch(keys)
        snap = session.metrics.snapshot()
        assert snap["rk4.batched_integrations"] == 1.0
        assert snap["kernels.rows_built"] == float(len(drivens))
        builds = [
            node
            for root in session.spans
            for _, node in root.walk()
            if node.name == "kernels.build_rows"
        ]
        assert len(builds) == 1
        assert builds[0].attrs["n_rows"] == len(drivens)
        assert builds[0].attrs["n_classes"] == sum(d + 1 for d in drivens)

        # A second pass over the same keys builds nothing.
        with obs.observe() as session:
            array.search_batch(keys)
        snap = session.metrics.snapshot()
        assert snap.get("rk4.batched_integrations", 0.0) == 0.0
        assert snap.get("kernels.rows_built", 0.0) == 0.0


class TestEveryRegisteredCell:
    @pytest.mark.parametrize("name", list(list_cells()))
    def test_full_triangle_validates_exactly(self, name):
        array = TCAMArray(get_cell(name), ArrayGeometry(rows=4, cols=6))
        engine = array.kernel
        engine.precompute()
        assert engine.rows_built == 7
        assert engine.validate() == 0.0
