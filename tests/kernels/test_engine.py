"""KernelEngine: compiled class rows, counters, the dense class sum."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import all_designs, build_array, get_design
from repro.errors import KernelError
from repro.kernels import KernelEngine, PrechargeClassRow, RaceClassRow, class_sums
from repro.tcam import ArrayGeometry, reference

SEARCHABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]


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
        for driven in (0, 3, 8, 12):
            row = engine.row(driven)
            if array.sensing == "precharge":
                assert isinstance(row, PrechargeClassRow)
                refs = reference._precharge_classes(array, range(driven + 1), driven)
                for n_miss, ref in enumerate(refs):
                    assert row.v_end[n_miss] == ref.v_end
                    assert bool(row.is_match[n_miss]) == ref.is_match
                    assert row.e_restore[n_miss] == ref.e_restore
                    assert row.e_diss[n_miss] == ref.e_diss
                    assert row.e_sense[n_miss] == ref.e_sense
                    assert row.t_sense[n_miss] == ref.t_sense
                    assert row.t_restore[n_miss] == ref.t_restore
            else:
                assert isinstance(row, RaceClassRow)
                for n_miss in range(driven + 1):
                    ref = reference._race_class(array, n_miss, driven)
                    assert bool(row.is_match[n_miss]) == ref.is_match
                    assert row.energy[n_miss] == ref.energy
                    assert row.delay[n_miss] == ref.delay

    def test_rows_cached_and_read_only(self):
        engine = KernelEngine(_array())
        row = engine.row(4)
        assert engine.row(4) is row
        assert engine.rows_built == 1
        with pytest.raises(ValueError):
            row.e_sense[0] = 1.0

    def test_out_of_grid_row_raises(self):
        """``driven`` past the array width (or negative) is a typed error,
        and a batch of rows holding one builds none of them."""
        engine = KernelEngine(_array(cols=12))
        for bad in (13, -1):
            with pytest.raises(KernelError, match="class triangle"):
                engine.rows([3, bad])
        assert engine.rows_built == 0
        assert engine.row(12).v_end.size == 13

    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_validate_within_budget(self, design):
        engine = KernelEngine(_array(design))
        engine.precompute()
        assert engine.validate() == 0.0

    def test_counters_snapshot(self):
        engine = KernelEngine(_array(cols=4))
        engine.precompute()
        assert engine.counters() == {
            "table_hits": 0,
            "rows_built": 5,
            "classes_tabulated": 15,
        }
