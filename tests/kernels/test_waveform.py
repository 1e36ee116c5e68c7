"""Compiled precharge planes: lazy, cached, read-only, bounded, validated.

Rows compile lazily on first use and stay cached, the planes are
handed out read-only, they span exactly the array's class triangle, and
the rows a search batch compiled validate exactly without compiling the
rest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import all_designs, build_array, get_design
from repro.errors import KernelError
from repro.tcam import ArrayGeometry
from repro.tcam.trit import random_word

PRECHARGE = [spec.name for spec in all_designs() if spec.sensing == "precharge"]


def _array_for(design_name: str, cols: int = 12):
    array = build_array(get_design(design_name), ArrayGeometry(rows=4, cols=cols))
    assert array.sensing == "precharge"
    return array


class TestTableConstruction:
    def test_rows_are_lazy_and_cached(self):
        engine = _array_for("fefet2t").kernel
        assert engine.rows_built == 0
        planes = engine.planes([4])
        assert engine.rows_built == 1
        v_end = planes["v_end"][4].copy()
        with obs.observe() as session:
            assert engine.planes([4]) is planes
        assert not [n for root in session.spans for _, n in root.walk()
                    if n.name == "kernels.build_rows"]
        engine.precompute()
        assert engine.rows_built == 13  # drivens 0..12
        assert engine.counters()["classes_tabulated"] == sum(d + 1 for d in range(13))
        assert np.array_equal(planes["v_end"][4], v_end)

    def test_rows_are_read_only(self):
        engine = _array_for("fefet2t").kernel
        planes = engine.planes([3])
        with pytest.raises(ValueError):
            planes["v_end"][3, 0] = 0.0
        with pytest.raises(TypeError):
            planes["v_end"] = np.zeros((13, 13))
        with pytest.raises(ValueError):
            engine.windows([3])[3, 0] = 0.0

    def test_out_of_grid_raises(self):
        """The tables span exactly the array's class triangle."""
        engine = _array_for("fefet2t", cols=4).kernel
        assert engine.planes([4])["v_end"].shape == (5, 5)
        with pytest.raises(KernelError):
            engine.planes([5])
        with pytest.raises(KernelError):
            engine.windows([5])


class TestValidation:
    @pytest.mark.parametrize("design", PRECHARGE)
    def test_validates_within_budget(self, design):
        """The rows a search batch compiled validate exactly, without
        compiling the rest of the triangle."""
        array = _array_for(design, cols=8)
        rng = np.random.default_rng(1)
        array.load([random_word(8, rng) for _ in range(4)])
        array.search_batch([random_word(8, rng, x_fraction=x) for x in (0.0, 0.5)])
        built = array.kernel.rows_built
        assert 0 < built < 9
        # The table is built through the stacked integrator, which is
        # elementwise identical to the scalar reference -- so the error
        # is not merely within budget but exactly zero.
        assert array.kernel.validate() == 0.0
        assert array.kernel.rows_built == built
