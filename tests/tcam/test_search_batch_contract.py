"""One ``search_batch`` contract for every searchable array type.

``TCAMArray`` (compiled kernel), ``NANDTCAMArray``, ``SegmentedBank``
and ``HierarchicalBank`` (per-key loops) all answer
``search_batch(keys)``.  ``keys`` is a trit block or a sequence of
:class:`TernaryWord`, validated whole before the first key moves the
search-line drive state, and the answers equal a per-key ``search``
loop outcome for outcome, ledgers in booking order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import TCAMError
from repro.tcam import ArrayGeometry, HierarchicalBank, NANDTCAMArray, SegmentedBank
from repro.tcam.cells import FeFET2TCell
from repro.tcam.trit import pack_keys, random_word

ROWS, COLS = 8, 12


def _build(kind):
    geo = ArrayGeometry(ROWS, COLS)
    if kind == "array":
        return build_array(get_design("fefet2t"), geo)
    if kind == "nand":
        return NANDTCAMArray(geo)
    if kind == "segmented":
        return SegmentedBank(FeFET2TCell(), geo, probe_cols=4)
    return HierarchicalBank(FeFET2TCell(), geo, segment_cols=[3, 4, 5])


def _loaded(kind, seed=0):
    rng = np.random.default_rng(seed)
    target = _build(kind)
    target.load([random_word(COLS, rng, x_fraction=0.3) for _ in range(ROWS)])
    return target


def _keys(n, seed):
    rng = np.random.default_rng(seed)
    return [random_word(COLS, rng) for _ in range(n)]


def _drive_states(target):
    """Search-line drive state of every array inside ``target``."""
    return [array._last_drive for array in getattr(target, "stages", [target])]


def _assert_equal(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert r.to_dict() == g.to_dict()
        assert list(r.energy) == list(g.energy)  # booking order


KINDS = ["array", "nand", "segmented", "hierarchical"]


class TestSearchBatchContract:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("form", ["words", "int8", "int64", "lists"])
    def test_equals_per_key_search(self, kind, form, per_key_search):
        ref, got = _loaded(kind), _loaded(kind)
        keys = _keys(7, seed=1)
        block = pack_keys(keys)
        batch = {
            "words": keys,
            "int8": block,
            "int64": block.astype(np.int64),
            "lists": block.tolist(),
        }[form]
        with per_key_search():
            expected = [ref.search(k) for k in keys]
        _assert_equal(expected, got.search_batch(batch))
        assert _drive_states(ref) == _drive_states(got)

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_batch(self, kind):
        target = _loaded(kind)
        assert target.search_batch(np.empty((0, COLS), dtype=np.int8)) == []
        assert target.search_batch([]) == []

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad_value", [3, 0.5, "width"])
    def test_rejected_batch_leaves_drive_state(self, kind, bad_value):
        target = _loaded(kind)
        target.search_batch(_keys(2, seed=2))  # a drive state to preserve
        block = pack_keys(_keys(5, seed=3)).astype(np.float64)
        if bad_value == "width":
            block = block[:, :-1]
        else:
            block[4, 2] = bad_value  # the last key: every earlier key is fine
        before = _drive_states(target)
        with pytest.raises(TCAMError, match="search_batch"):
            target.search_batch(block)
        assert _drive_states(target) == before


class TestScalarSearchTakesCodeRows:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("form", ["ndarray", "list"])
    def test_row_equals_word(self, kind, form):
        ref, got = _loaded(kind), _loaded(kind)
        for key in _keys(3, seed=4):
            row = key.as_array().astype(np.int64)
            _assert_equal([ref.search(key)], [got.search(row if form == "ndarray" else row.tolist())])
        assert _drive_states(ref) == _drive_states(got)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [[3] * COLS, [0.5] * COLS, [0] * (COLS - 1)])
    def test_malformed_key_raises_typed_error(self, kind, bad):
        target = _loaded(kind)
        target.search(_keys(1, seed=5)[0])
        before = _drive_states(target)
        with pytest.raises(TCAMError, match="search"):
            target.search(np.asarray(bad))
        assert _drive_states(target) == before


class TestNANDSenseMargin:
    def test_broken_minus_conducting_string(self):
        array = NANDTCAMArray(ArrayGeometry(4, 16))
        match = array._string.evaluate(0, array.v_sense, array.t_eval)
        broken = array._string.evaluate(1, array.v_sense, array.t_eval)
        assert array.sense_margin() == broken.v_end - match.v_end
        assert array.sense_margin() > 0.0
