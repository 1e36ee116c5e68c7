"""Compiled precharge endpoints: the match-line voltage at the strobe.

Every ``v_end`` entry of the engine's precharge rows must equal a lone
scalar RK4 run (:func:`repro.circuits.rc.discharge_waveform`) of its
class bit for bit, rows compile lazily and stay cached and read-only,
and :meth:`KernelEngine.validate` catches a corrupted endpoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.rc import discharge_waveform
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
    @pytest.mark.parametrize("design", PRECHARGE)
    def test_endpoints_match_scalar_rk4_exactly(self, design):
        """Every tabulated endpoint equals the scalar reference bitwise."""
        array = _array_for(design)
        engine = array.kernel
        t_grid = np.linspace(0.0, array.t_eval, 65)
        for driven in (0, 1, 5, 12):
            v_ends = engine.row(driven).v_end
            assert v_ends.shape == (driven + 1,)
            for n_miss in range(driven + 1):
                n_match = driven - n_miss

                def current(v, n_miss=n_miss, n_match=n_match):
                    total = 0.0
                    if n_miss:
                        total += n_miss * array.cell.i_pulldown(v)
                    if n_match:
                        total += n_match * array.cell.i_leak(v)
                    return total

                if driven == 0:
                    expected = array.precharge.target_voltage()
                else:
                    expected = float(
                        discharge_waveform(
                            array.c_ml,
                            current,
                            array.precharge.target_voltage(),
                            t_grid,
                        )[-1]
                    )
                assert v_ends[n_miss] == expected

    def test_rows_are_lazy_and_cached(self):
        engine = _array_for("fefet2t").kernel
        assert engine.rows_built == 0
        row = engine.row(4)
        assert engine.rows_built == 1
        assert engine.row(4) is row
        engine.precompute()
        assert engine.rows_built == 13  # drivens 0..12
        assert engine.counters()["classes_tabulated"] == sum(d + 1 for d in range(13))

    def test_rows_are_read_only(self):
        engine = _array_for("fefet2t").kernel
        with pytest.raises(ValueError):
            engine.row(3).v_end[0] = 0.0

    def test_out_of_grid_raises(self):
        """The tables span exactly the array's class triangle."""
        engine = _array_for("fefet2t", cols=4).kernel
        engine.row(4)
        with pytest.raises(KernelError):
            engine.row(5)
        with pytest.raises(KernelError):
            engine.window_row(5)


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

    def test_validate_raises_over_budget(self):
        engine = _array_for("fefet2t", cols=6).kernel
        engine.precompute([3])
        # Corrupt one tabulated endpoint; validation must catch it.
        v_end = engine.row(3).v_end
        v_end.setflags(write=True)
        v_end[1] *= 1.0 + 1e-6
        v_end.setflags(write=False)
        with pytest.raises(KernelError, match="diverged"):
            engine.validate()
