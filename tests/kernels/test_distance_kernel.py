"""Distance kernel bit-identity: nearest / threshold / top-k batch APIs.

The three distance-mode batch searches run on the fused distance kernel
(one SoA matmul for the whole mismatch matrix, windows and droop
voltages gathered from the compiled tables).
Nothing may change: winner rows, distances, masks, delays, and every
per-component ledger float -- *including the booking order* -- must
equal the scalar reference loop exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import all_designs, build_array, get_design
from repro.errors import KernelError, TCAMError
from repro.faults.faultmap import FaultMap
from repro.tcam import ArrayGeometry, reference
from repro.tcam.trit import random_word

PRECHARGE = [spec.name for spec in all_designs() if spec.sensing == "precharge"]


def _loaded_pair(design_name, rows=16, cols=24, seed=7, x_fraction=0.2):
    """Two identically-written arrays: scalar reference, kernel batch."""
    spec = get_design(design_name)
    geo = ArrayGeometry(rows=rows, cols=cols)
    a = build_array(spec, geo)
    b = build_array(spec, geo)
    rng = np.random.default_rng(seed)
    words = [random_word(cols, rng, x_fraction) for _ in range(rows)]
    for i, w in enumerate(words):
        a.write(i, w)
        b.write(i, w)
    return a, b


def _keys(cols, n, seed, x_fraction=0.15):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction) for _ in range(n)]


def _assert_ledger_identical(s, b):
    s_dict, b_dict = s.energy.as_dict(), b.energy.as_dict()
    # list() comparison checks the *booking order*, not just the values:
    # the kernel must assemble its ledgers in the scalar component order.
    assert list(s_dict) == list(b_dict)
    for component, value in s_dict.items():
        assert b_dict[component] == value, component
    assert s.energy.total == b.energy.total


class TestNearestBatchKernel:
    @pytest.mark.parametrize("design", PRECHARGE)
    def test_bit_identical_to_scalar(self, design):
        a, b = _loaded_pair(design)
        keys = _keys(24, 16, seed=13)
        scalar = [reference.nearest_match(a, k) for k in keys]
        kernel = b.nearest_match_batch(keys)
        assert len(scalar) == len(kernel)
        for s, x in zip(scalar, kernel):
            assert s.row == x.row
            assert s.distance == x.distance
            assert s.search_delay == x.search_delay
            _assert_ledger_identical(s, x)
        assert b.kernel.table_hits > 0

    def test_counters_delta_sync_to_metrics(self):
        _, b = _loaded_pair("fefet2t")
        keys = _keys(24, 8, seed=5)
        with obs.observe() as session:
            b.nearest_match_batch(keys)
            snapshot = session.metrics.snapshot()
        assert snapshot["kernels.table_hits"] == b.kernel.table_hits
        assert snapshot["kernels.table_hits"] > 0


class TestThresholdBatchKernel:
    @pytest.mark.parametrize("design", PRECHARGE)
    @pytest.mark.parametrize("max_distance", [0, 2, 24])
    def test_bit_identical_to_scalar(self, design, max_distance):
        a, b = _loaded_pair(design)
        keys = _keys(24, 12, seed=19)
        scalar = [reference.threshold_match(a, k, max_distance) for k in keys]
        kernel = b.threshold_match_batch(keys, max_distance)
        assert len(scalar) == len(kernel)
        for s, x in zip(scalar, kernel):
            assert np.array_equal(s.match_mask, x.match_mask)
            assert s.first_match == x.first_match
            assert s.n_matches == x.n_matches
            assert s.max_distance == x.max_distance
            assert s.search_delay == x.search_delay
            _assert_ledger_identical(s, x)
        assert b.kernel.table_hits > 0


class TestTopKBatchKernel:
    @pytest.mark.parametrize("design", PRECHARGE)
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_bit_identical_to_scalar(self, design, k):
        a, b = _loaded_pair(design)
        keys = _keys(24, 12, seed=31)
        scalar = [reference.topk_match(a, key, k) for key in keys]
        kernel = b.topk_match_batch(keys, k)
        assert len(scalar) == len(kernel)
        for s, x in zip(scalar, kernel):
            assert s.rows == x.rows
            assert s.distances == x.distances
            assert s.k == x.k
            assert s.search_delay == x.search_delay
            _assert_ledger_identical(s, x)

    def test_k1_agrees_with_nearest(self):
        """Top-1 must return the nearest winner (same tie-breaking)."""
        _, b = _loaded_pair("fefet2t")
        keys = _keys(24, 10, seed=37)
        top1 = b.topk_match_batch(keys, 1)
        nearest = b.nearest_match_batch(keys)
        for t, n in zip(top1, nearest):
            assert t.rows[0] == n.row
            assert t.distances[0] == n.distance


class TestWindowTables:
    def test_window_row_matches_reference_windows(self):
        _, b = _loaded_pair("fefet2t")
        eng = b.kernel
        v_pre = b.precharge.target_voltage()
        for driven in (1, 5, 24):
            row = eng.window_row(driven)
            assert row.shape == (driven + 1,)
            assert row[0] == b.t_eval
            for n in range(1, driven + 1):
                assert row[n] == reference._nearest_window(b, n, driven, v_pre)

    def test_window_row_is_read_only_and_guarded(self):
        _, b = _loaded_pair("fefet2t")
        row = b.kernel.window_row(4)
        with pytest.raises(ValueError):
            row[0] = 0.0
        with pytest.raises(KernelError):
            b.kernel.window_row(25)

    def test_current_race_has_no_window_tables(self):
        a = build_array(get_design("fefet_cr"), ArrayGeometry(rows=4, cols=8))
        eng = a.kernel
        with pytest.raises(KernelError):
            eng.window_row(4)


class TestGuards:
    def test_sensing_guard_names_the_batch_api(self):
        a = build_array(get_design("fefet_cr"), ArrayGeometry(rows=4, cols=8))
        key = random_word(8, np.random.default_rng(0))
        with pytest.raises(TCAMError, match=r"threshold_match_batch\(\)"):
            a.threshold_match_batch([key], 2)
        with pytest.raises(TCAMError, match=r"topk_match_batch\(\)"):
            a.topk_match_batch([key], 2)
        with pytest.raises(TCAMError, match=r"nearest_match_batch\(\)"):
            a.nearest_match_batch([key])

    def test_fault_guard_names_the_batch_api(self):
        _, b = _loaded_pair("fefet2t")
        fm = FaultMap(16, 24)
        fm.set_dead_row(3)
        b.attach_faults(fm)
        key = random_word(24, np.random.default_rng(0))
        with pytest.raises(TCAMError, match=r"nearest_match_batch\(\)"):
            b.nearest_match_batch([key])
        with pytest.raises(TCAMError, match=r"threshold_match_batch\(\)"):
            b.threshold_match_batch([key], 2)
        with pytest.raises(TCAMError, match=r"topk_match_batch\(\)"):
            b.topk_match_batch([key], 2)


class TestCountArguments:
    """``k`` / ``max_distance`` accept Python and NumPy integers only."""

    CALLS = {
        "threshold_match": lambda a, key, v: a.threshold_match(key, v),
        "threshold_match_batch": lambda a, key, v: a.threshold_match_batch([key], v),
        "topk_match": lambda a, key, v: a.topk_match(key, v),
        "topk_match_batch": lambda a, key, v: a.topk_match_batch([key], v),
    }

    @pytest.mark.parametrize("api", sorted(CALLS))
    @pytest.mark.parametrize(
        "value", [1.5, 2.0, float("nan"), np.float64(2.0), "2", None, True, -1]
    )
    def test_bad_values_raise_typed_errors(self, api, value):
        _, b = _loaded_pair("fefet2t")
        key = random_word(24, np.random.default_rng(0))
        drive = b._last_drive
        with pytest.raises(TCAMError):
            self.CALLS[api](b, key, value)
        assert b._last_drive == drive

    @pytest.mark.parametrize("api", sorted(CALLS))
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int8(3)])
    def test_numpy_integers_match_python_ints(self, api, value):
        a, b = _loaded_pair("fefet2t")
        key = random_word(24, np.random.default_rng(1))
        ref, got = self.CALLS[api](a, key, 3), self.CALLS[api](b, key, value)
        if api.endswith("_batch"):
            (ref,), (got,) = ref, got
        assert ref.to_dict() == got.to_dict()


class TestAdoptTables:
    def _pair_of_engines(self):
        spec = get_design("fefet2t")
        geo = ArrayGeometry(rows=8, cols=16)
        rng = np.random.default_rng(3)
        a = build_array(spec, geo)
        b = build_array(spec, geo)
        a.load([random_word(16, rng) for _ in range(8)])
        b.load([random_word(16, rng) for _ in range(8)])
        return a, b, a.kernel, b.kernel

    def test_tables_shared_by_reference(self):
        _, _, donor, adopter = self._pair_of_engines()
        donor.precompute([10])
        donor.window_row(10)
        adopter.adopt_tables(donor)
        assert adopter._rows is donor._rows
        assert adopter._window_rows is donor._window_rows
        assert adopter.rows_built == donor.rows_built
        # Lazy builds through the adopter land in the shared cache.
        adopter.row(6)
        assert 6 in donor._rows

    def test_adopted_results_stay_bit_identical(self):
        a, b, donor, adopter = self._pair_of_engines()
        adopter.adopt_tables(donor)
        keys = _keys(16, 8, seed=9)
        # Scalar reference on an identically-written fresh array so both
        # paths start from the same search-line toggle history.
        spec = get_design("fefet2t")
        c = build_array(spec, ArrayGeometry(rows=8, cols=16))
        c.load([b.word_at(r) for r in range(8)])
        ref = [reference.nearest_match(c, k) for k in keys]
        kernel = b.nearest_match_batch(keys)
        for r, x in zip(ref, kernel):
            assert r.row == x.row
            assert r.distance == x.distance
            _assert_ledger_identical(r, x)
        # Adoption counters stay per-engine.
        assert adopter.table_hits > 0
        assert donor.table_hits == 0

    def test_rejects_electrically_different_arrays(self):
        spec = get_design("fefet2t")
        a = build_array(spec, ArrayGeometry(rows=8, cols=16))
        b = build_array(spec, ArrayGeometry(rows=8, cols=12))
        with pytest.raises(KernelError, match="electrically different"):
            b.kernel.adopt_tables(a.kernel)
        c = build_array(get_design("cmos16t"), ArrayGeometry(rows=8, cols=16))
        with pytest.raises(KernelError, match="electrically different"):
            c.kernel.adopt_tables(a.kernel)

    def test_self_adoption_is_a_no_op(self):
        _, _, donor, _ = self._pair_of_engines()
        donor.precompute([4])
        rows = donor._rows
        donor.adopt_tables(donor)
        assert donor._rows is rows
