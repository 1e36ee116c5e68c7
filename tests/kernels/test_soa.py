"""SoAState: matmul mismatch counts and the fault planes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import KernelError
from repro.faults.faultmap import FaultKind, FaultMap
from repro.kernels import SoAState
from repro.kernels.soa import key_planes
from repro.tcam import ArrayGeometry, mismatch_counts_batch, pack_keys, reference
from repro.tcam.trit import random_word


def _loaded(rows=24, cols=20, seed=5, x_fraction=0.25):
    array = build_array(get_design("fefet2t"), ArrayGeometry(rows=rows, cols=cols))
    rng = np.random.default_rng(seed)
    for i in range(rows):
        array.write(i, random_word(cols, rng, x_fraction))
    return array


class TestMismatchCounts:
    @pytest.mark.parametrize("x_fraction", [0.0, 0.25, 0.6])
    def test_matches_reference_broadcast_counts(self, x_fraction):
        """Matmul counts equal the legacy broadcast counts bitwise."""
        array = _loaded(x_fraction=0.3)
        soa = SoAState.from_array(array, version=0)
        rng = np.random.default_rng(17)
        packed = pack_keys([random_word(20, rng, x_fraction) for _ in range(40)])
        expected = mismatch_counts_batch(array._stored, packed)
        got = soa.mismatch_counts(packed)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_planes_are_contiguous_float32(self):
        array = _loaded()
        soa = SoAState.from_array(array, version=0)
        assert soa.planes.dtype == np.float32
        assert soa.planes.flags.forc  # one block: the matmul reads it without a copy
        cols = array.geometry.cols
        for half, trit in ((soa.planes[:cols], 0), (soa.planes[cols:], 1)):
            assert np.array_equal(half, (array._stored == trit).T.astype(np.float32))

    def test_shape_mismatch_raises(self):
        soa = SoAState.from_array(_loaded(cols=20), version=0)
        with pytest.raises(KernelError):
            soa.mismatch_counts(np.zeros((3, 21), dtype=np.int8))


def _faulted(array, seed=9):
    """A fault map carrying every cell kind plus row-level faults."""
    rows, cols = array.geometry.rows, array.geometry.cols
    fm = FaultMap(rows, cols)
    rng = np.random.default_rng(seed)
    for _ in range(rows):
        r, c = int(rng.integers(rows)), int(rng.integers(cols))
        kind = FaultKind(int(rng.integers(1, 5)))
        value = 0.2 if kind is FaultKind.RETENTION else float(rng.integers(3))
        fm.set_cell(r, c, kind, value)
    fm.set_dead_row(2)
    fm.set_sa_offset(3, 0.02)
    return fm


class TestFaultPlanes:
    def test_nominal_array_has_no_fault_planes(self):
        soa = SoAState.from_array(_loaded(), version=0)
        assert soa.faults is None

    def test_fault_plane_counts_match_reference_composition(self):
        """n_pull / effective / intended counts equal the per-cell masks
        the scalar faulty search builds, and weak cells its weak mask."""
        array = _loaded()
        fm = _faulted(array)
        array.attach_faults(fm)
        planes = SoAState.from_array(array, version=1, faults=fm).faults
        assert planes.version == fm.version
        assert np.array_equal(planes.dead, fm.dead_rows)
        assert np.array_equal(planes.sa_offset, fm.sa_offset)
        rng = np.random.default_rng(23)
        keys = [random_word(20, rng, 0.25) for _ in range(30)]
        packed = pack_keys(keys)
        n_pull, miss_eff, miss = planes.counts(key_planes(packed))
        eff = fm.effective_stored(array._stored)
        assert np.array_equal(miss, mismatch_counts_batch(array._stored, packed))
        assert np.array_equal(miss_eff, mismatch_counts_batch(eff, packed))
        wk, wi = planes.weak_cells(packed)
        for k, key in enumerate(keys):
            key_arr = key.as_array()
            pull, weak = reference._fault_row_composition(array, key_arr, key_arr != 2, eff)
            assert np.array_equal(n_pull[k], pull.sum(axis=1))
            mine = np.zeros_like(weak)
            mine[planes.ret_row[wi[wk == k]], planes.ret_col[wi[wk == k]]] = True
            assert np.array_equal(mine, weak)

    def test_empty_fault_map_has_no_fault_planes(self):
        array = _loaded()
        array.attach_faults(FaultMap(array.geometry.rows, array.geometry.cols))
        assert array._soa_state().faults is None
        fm = _faulted(array)
        array.attach_faults(fm)
        assert array._fault_injection_active()
        assert array._soa_state().faults.version == fm.version


class TestUniformity:
    """A snapshot is uniform in version: everything in it comes from one
    (content, fault-map) version and never aliases live state."""

    def test_snapshot_copies_do_not_alias(self):
        """Mutating the array or its map after the snapshot must not change it."""
        array = _loaded()
        fm = _faulted(array)
        array.attach_faults(fm)
        soa = SoAState.from_array(array, version=0, faults=fm)
        valid_before = soa.valid.copy()
        weights_before = soa.faults.weights.copy()
        array.invalidate(0)
        fm.set_dead_row(5)
        fm.set_sa_offset(6, 0.01)
        fm.set_cell(0, 0, FaultKind.STUCK_MISS)
        assert np.array_equal(soa.valid, valid_before)
        assert np.array_equal(soa.faults.weights, weights_before)
        assert not soa.faults.dead[5]
        assert soa.faults.sa_offset[6] == 0.0
