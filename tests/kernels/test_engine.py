"""KernelEngine: compiled class planes, counters, validation, the dense class sum.

Every precharge ``v_end`` endpoint must equal a lone scalar RK4 run
(:func:`repro.circuits.rc.discharge_waveform`) of its class bit for bit,
every other plane the reference per-class result; entries past a row's
triangle read ``0.0`` / ``False``, rows stay cached, the planes are
read-only, and :meth:`KernelEngine.validate` catches a corrupted
endpoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.rc import discharge_waveform
from repro.core import all_designs, build_array, get_design
from repro.errors import KernelError
from repro.kernels import KernelEngine, class_sums
from repro.tcam import ArrayGeometry, reference

SEARCHABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]
PRECHARGE = [spec.name for spec in all_designs() if spec.sensing == "precharge"]


def _array(design="fefet2t", rows=8, cols=12):
    return build_array(get_design(design), ArrayGeometry(rows=rows, cols=cols))


def _left_to_right(counts, energies):
    """The reference per-class booking: ``acc = acc + n * e`` over the
    present classes only, in ascending class order."""
    acc = 0.0
    for n, e in zip(counts, energies):
        if n:
            acc = acc + float(n) * e
    return acc


class TestClassSums:
    def test_matches_left_to_right_loop_bitwise(self):
        """The whole point: bitwise equality with sequential accumulation."""
        rng = np.random.default_rng(42)
        # Wildly mixed magnitudes make pairwise vs sequential summation
        # visibly different at the ULP level.
        terms = rng.uniform(1e-30, 1.0, size=(5, 40)) * 10.0 ** rng.integers(-15, 15, size=(5, 40))
        got = class_sums(terms)
        for i, row in enumerate(terms):
            acc = 0.0
            for x in row:
                acc = acc + x
            assert got[i] == acc, f"row {i} diverged from sequential sum"

    def test_pairwise_trap(self):
        """Zero-count classes interleaved with mixed-magnitude ones: the
        dense sum equals the reference loop that skips them, bit for bit,
        while numpy's pairwise reductions do not on the same data."""
        rng = np.random.default_rng(7)
        n_keys, n_classes = 64, 24
        energies = 10.0 ** rng.uniform(-30.0, 15.0, size=n_classes)
        counts = rng.integers(1, 200, size=(n_keys, n_classes))
        counts[:, 1::3] = 0  # every third class absent for every key
        counts[rng.random((n_keys, n_classes)) < 0.2] = 0
        terms = counts.astype(np.float64) * energies
        got = class_sums(terms)
        ref = np.array([_left_to_right(c, energies) for c in counts])
        assert np.array_equal(got, ref)
        pairwise = np.sum(terms, axis=1)
        reduceat = np.add.reduceat(terms.ravel(), np.arange(n_keys) * n_classes)
        assert np.any(pairwise != ref), "np.sum happened to be sequential: no teeth"
        assert np.any(reduceat != ref), "np.add.reduceat happened to be sequential: no teeth"

    def test_all_zero_rows_are_zero(self):
        got = class_sums(np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
        assert np.array_equal(got, [0.0, 2.0])

    def test_no_rows(self):
        assert class_sums(np.zeros((0, 5))).size == 0


class TestEngineRows:
    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_rows_match_array_class_helpers(self, design):
        """Every tabulated field equals the reference per-class result."""
        array = _array(design)
        engine = KernelEngine(array)
        drivens = (0, 3, 8, 12)
        planes = engine.planes(drivens)
        for driven in drivens:
            if array.sensing == "precharge":
                refs = reference._precharge_classes(array, range(driven + 1), driven)
            else:
                refs = [reference._race_class(array, n, driven) for n in range(driven + 1)]
            assert planes.keys() == vars(refs[0]).keys()
            for name, plane in planes.items():
                assert plane.shape == (13, 13)
                row = plane[driven].tolist()
                assert row[: driven + 1] == [getattr(ref, name) for ref in refs], name
                # Padding past the row's triangle: no energy, no time, no match.
                assert not any(row[driven + 1 :]), name
        for name, plane in planes.items():
            # Rows not requested stay unbuilt.
            assert not plane[[1, 2, 4, 11]].any(), name

    @pytest.mark.parametrize("design", PRECHARGE)
    def test_endpoints_match_scalar_rk4_exactly(self, design):
        """Every compiled endpoint equals a lone scalar RK4 run bitwise."""
        array = _array(design, rows=4)
        engine = array.kernel
        t_grid = np.linspace(0.0, array.t_eval, 65)
        for driven in (0, 1, 5, 12):
            v_ends = engine.planes([driven])["v_end"][driven, : driven + 1]
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

    def test_rows_cached_and_read_only(self):
        engine = KernelEngine(_array())
        planes = engine.planes([4])
        assert engine.planes([4]) is planes
        assert engine.rows_built == 1
        for plane in planes.values():
            with pytest.raises(ValueError):
                plane[4, 0] = 1.0

    def test_out_of_grid_row_raises(self):
        """``driven`` past the array width (or negative) is a typed error,
        and a batch of rows holding one builds none of them."""
        engine = KernelEngine(_array(cols=12))
        for bad in (13, -1):
            with pytest.raises(KernelError, match="class triangle"):
                engine.planes([3, bad])
        assert engine.rows_built == 0
        assert engine.planes([12])["v_end"][12].size == 13

    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_validate_within_budget(self, design):
        engine = KernelEngine(_array(design))
        engine.precompute()
        assert engine.validate() == 0.0

    def test_validate_raises_over_budget(self):
        engine = KernelEngine(_array(cols=6))
        engine.precompute([3])
        # Corrupt one compiled endpoint; validation must catch it.
        v_end = engine.planes([3])["v_end"]
        v_end.setflags(write=True)
        v_end[3, 1] *= 1.0 + 1e-6
        v_end.setflags(write=False)
        with pytest.raises(KernelError, match="diverged"):
            engine.validate()

    def test_counters_snapshot(self):
        engine = KernelEngine(_array(cols=4))
        engine.precompute()
        assert engine.counters() == {
            "table_hits": 0,
            "rows_built": 5,
            "classes_tabulated": 15,
        }
