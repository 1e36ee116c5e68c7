"""Property: every batch operation equals its per-key scalar reference.

For random shapes, don't-care densities, row masks, partially valid and
empty arrays, and ``k`` beyond the row count, each ``*_batch`` call
(the compiled kernel) must return exactly what a loop over the scalar
call (the per-key reference) returns -- every outcome field, every
ledger component in booking order -- and leave the same search-line
drive state behind.  Search runs both sensing styles; the distance
operations need precharge sensing and run on three precharge cells:
the full-swing FeFET, the low-voltage FeFET (clamped precharge target)
and the 16T CMOS cell (supply-riding).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_array, get_design
from repro.tcam import ArrayGeometry, reference
from repro.tcam.trit import random_word


@st.composite
def scenarios(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    return {
        "design": draw(st.sampled_from(["fefet2t", "fefet2t_lv", "cmos16t", "fefet_cr"])),
        "rows": rows,
        "cols": cols,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "x_fraction": draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        "key_x": draw(st.sampled_from([0.0, 0.2, 0.6, 1.0])),
        "n_words": draw(st.integers(0, rows)),
        "mask": draw(st.sampled_from(["none", "random", "all_false"])),
        "n_keys": draw(st.integers(1, 8)),
        "k": draw(st.integers(1, rows + 3)),
        "max_distance": draw(st.integers(0, cols + 1)),
    }


def _pair(sc, rng):
    """Two identically-written arrays: scalar reference, batch."""
    spec = get_design(sc["design"])
    geo = ArrayGeometry(rows=sc["rows"], cols=sc["cols"])
    ref, batch = build_array(spec, geo), build_array(spec, geo)
    # Scattered rows, so invalid rows sit between valid ones.
    for row in rng.permutation(sc["rows"])[: sc["n_words"]]:
        word = random_word(sc["cols"], rng, sc["x_fraction"])
        ref.write(int(row), word)
        batch.write(int(row), word)
    return ref, batch


def _assert_same(expected, got):
    assert len(expected) == len(got)
    for e, g in zip(expected, got):
        assert e.to_dict() == g.to_dict()
        assert list(e.energy) == list(g.energy)


@given(sc=scenarios())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_equals_per_key_scalar(sc):
    rng = np.random.default_rng(sc["seed"])
    ref, batch = _pair(sc, rng)
    rows, cols = sc["rows"], sc["cols"]
    keys = [random_word(cols, rng, sc["key_x"]) for _ in range(sc["n_keys"])]
    mask = {
        "none": None,
        "random": rng.random(rows) < 0.5,
        "all_false": np.zeros(rows, dtype=bool),
    }[sc["mask"]]

    _assert_same(
        [reference.search(ref, k, row_mask=mask) for k in keys], batch.search_batch(keys, mask)
    )
    if ref.sensing == "precharge":
        k, t = sc["k"], sc["max_distance"]
        _assert_same(
            [reference.nearest_match(ref, q) for q in keys], batch.nearest_match_batch(keys)
        )
        _assert_same(
            [reference.threshold_match(ref, q, t) for q in keys],
            batch.threshold_match_batch(keys, t),
        )
        _assert_same(
            [reference.topk_match(ref, q, k) for q in keys], batch.topk_match_batch(keys, k)
        )
    assert ref._last_drive == batch._last_drive
