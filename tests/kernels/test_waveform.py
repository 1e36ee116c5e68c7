"""WaveformTable: tabulated RK4 endpoints + monotone interpolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.rc import discharge_waveform
from repro.core import all_designs, build_array, get_design
from repro.errors import KernelError
from repro.kernels import WaveformTable
from repro.tcam import ArrayGeometry

PRECHARGE = [spec.name for spec in all_designs() if spec.sensing == "precharge"]


def _table_for(design_name: str, cols: int = 12, max_driven: int | None = None):
    array = build_array(get_design(design_name), ArrayGeometry(rows=4, cols=cols))
    assert array.sensing == "precharge"
    return array, WaveformTable(
        array.c_ml,
        array.cell.i_pulldown,
        array.cell.i_leak,
        array.precharge.target_voltage(),
        array.t_eval,
        max_driven=cols if max_driven is None else max_driven,
    )


class TestTableConstruction:
    @pytest.mark.parametrize("design", PRECHARGE)
    def test_endpoints_match_scalar_rk4_exactly(self, design):
        """Every tabulated endpoint equals the scalar reference bitwise."""
        array, table = _table_for(design)
        t_grid = np.linspace(0.0, array.t_eval, 65)
        for driven in (0, 1, 5, 12):
            v_ends = table.row(driven)
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
                assert table.v_end(n_miss, driven) == expected

    def test_rows_are_lazy_and_cached(self):
        _, table = _table_for("fefet2t")
        assert table.rows_built == 0
        row = table.row(4)
        assert table.rows_built == 1
        assert table.row(4) is row
        table.precompute()
        assert table.rows_built == 13  # drivens 0..12
        assert table.classes_tabulated == sum(d + 1 for d in range(13))

    def test_rows_are_read_only(self):
        _, table = _table_for("fefet2t")
        with pytest.raises(ValueError):
            table.row(3)[0] = 0.0

    def test_out_of_grid_raises(self):
        _, table = _table_for("fefet2t", max_driven=4)
        assert table.in_grid(0, 4) and not table.in_grid(0, 5)
        with pytest.raises(KernelError):
            table.row(5)
        with pytest.raises(KernelError):
            table.v_end(6, 4)


class TestValidation:
    @pytest.mark.parametrize("design", PRECHARGE)
    def test_validates_within_budget(self, design):
        _, table = _table_for(design, cols=8)
        table.precompute()
        worst = table.validate(rtol=1e-9)
        # The table is built through the batched integrator, which is
        # elementwise identical to the scalar reference -- so the error
        # is not merely within budget but exactly zero.
        assert worst == 0.0

    def test_validate_raises_over_budget(self):
        _, table = _table_for("fefet2t", cols=6)
        table.precompute([3])
        # Corrupt one tabulated endpoint; validation must catch it.
        row = table._rows[3]
        row.setflags(write=True)
        row[1] *= 1.0 + 1e-6
        row.setflags(write=False)
        with pytest.raises(KernelError):
            table.validate(rtol=1e-9)
