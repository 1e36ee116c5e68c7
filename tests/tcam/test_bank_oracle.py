"""Staged banks against an oracle built without bank code.

The expected outcome of a bank search is assembled here by hand: the
per-key reference (:func:`repro.tcam.reference.search`) runs on each
stage array of a twin bank with the running survivor mask, the stage
ledgers merge in stage order, the delays and cycle times add, and early
termination stops at the first stage that leaves no survivor.  Both
bank classes must equal it in every outcome field, in ledger booking
order and in every stage's search-line drive state -- over depths 1-4,
with early termination on and off, for the ``fefet2t`` and ``cmos16t``
designs, with and without faults (dead rows and sense-amp offsets
included), through ``search`` and ``search_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import get_design
from repro.energy.accounting import EnergyLedger
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry, HierarchicalBank, SegmentedBank, random_word, reference
from repro.tcam.bank import SegmentedSearchOutcome
from repro.tcam.trit import TernaryWord

ROWS, COLS = 8, 12

# (kind, segment widths): the segmented bank is the depth-2 case.
BANKS = [
    ("hierarchical", [12]),
    ("segmented", [4, 8]),
    ("hierarchical", [5, 7]),
    ("hierarchical", [3, 4, 5]),
    ("hierarchical", [2, 3, 3, 4]),
]


def expected_search(twin, key: TernaryWord) -> SegmentedSearchOutcome:
    """The bank outcome of ``key``, composed from the stage arrays of
    ``twin`` through the per-key reference."""
    codes = key.as_array()
    survivors = np.ones(ROWS, dtype=bool)
    ledger = EnergyLedger()
    delay = cycle = 0.0
    first_survivors = ROWS
    skipped = False
    lo = 0
    for i, stage in enumerate(twin.stages):
        if twin.early_terminate and not survivors.any():
            skipped = True
            break
        hi = lo + stage.geometry.cols
        out = reference.search(stage, codes[lo:hi], row_mask=survivors)
        lo = hi
        ledger.merge(out.energy)
        delay += out.search_delay
        cycle += out.cycle_time
        survivors = survivors & out.match_mask
        if i == 0:
            first_survivors = int(survivors.sum())
    hits = np.flatnonzero(survivors)
    return SegmentedSearchOutcome(
        match_mask=survivors,
        first_match=int(hits[0]) if hits.size else None,
        energy=ledger,
        search_delay=delay,
        cycle_time=cycle,
        survivors_stage1=first_survivors,
        stage2_skipped=skipped,
    )


def _build(kind, segments, design, early):
    spec = get_design(design)
    geo = ArrayGeometry(ROWS, COLS)
    if kind == "segmented":
        return SegmentedBank(
            spec.build_cell(), geo, segments[0], early_terminate=early, sensing=spec.sensing
        )
    return HierarchicalBank(
        spec.build_cell(), geo, segments, early_terminate=early, sensing=spec.sensing
    )


def _fault_map(rng) -> FaultMap:
    fm = FaultMap(ROWS, COLS)
    for _ in range(5):
        kind = FaultKind(int(rng.integers(1, 5)))
        value = 0.15 if kind is FaultKind.RETENTION else float(rng.integers(3))
        fm.set_cell(int(rng.integers(ROWS)), int(rng.integers(COLS)), kind, value)
    fm.set_dead_row(int(rng.integers(ROWS)))
    for r in rng.choice(ROWS, size=2, replace=False):
        fm.set_sa_offset(int(r), float(rng.choice([-0.3, 0.1, 0.4])))
    return fm


def _scene(seed):
    """Stored words whose column 0 is ``0`` and keys of two kinds: a key
    with ``1`` in column 0 leaves no stage-1 survivor (the early-termination
    path), a copy or near-copy of a stored word survives and often matches."""
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(ROWS):
        codes = random_word(COLS, rng, 0.3).as_array().copy()
        codes[0] = 0
        words.append(TernaryWord(codes))
    keys = []
    for i in range(4):
        if i % 2:
            codes = random_word(COLS, rng, 0.1).as_array().copy()
            codes[0] = 1
        else:
            codes = words[int(rng.integers(ROWS))].as_array().copy()
            if i:
                codes[int(rng.integers(1, COLS))] = int(rng.integers(3))
        keys.append(TernaryWord(codes))
    return rng, words, keys


@pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
@pytest.mark.parametrize("design", ["fefet2t", "cmos16t"])
@pytest.mark.parametrize("early", [True, False], ids=["early", "full"])
@pytest.mark.parametrize(
    "kind,segments", BANKS, ids=lambda v: v if isinstance(v, str) else str(len(v))
)
def test_bank_equals_hand_built_oracle(kind, segments, early, design, faulted):
    rng, words, keys = _scene(len(segments) + 10 * faulted)
    scalar, batch, twin = (_build(kind, segments, design, early) for _ in range(3))
    for mine, donor in zip(batch.stages, scalar.stages):
        mine.kernel.adopt_tables(donor.kernel)  # compile each stage's tables once
    faults = _fault_map(rng) if faulted else None
    for bank in (scalar, batch, twin):
        bank.load(words)
        bank.attach_faults(faults.copy() if faults is not None else None)

    expected = [expected_search(twin, key) for key in keys]
    for got in ([scalar.search(key) for key in keys], batch.search_batch(keys)):
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            assert g.to_dict() == e.to_dict()
            assert list(g.energy) == list(e.energy)  # booking order
            assert (g.survivors_stage1, g.stage2_skipped) == (e.survivors_stage1, e.stage2_skipped)
    drives = [s._last_drive for s in twin.stages]
    assert [s._last_drive for s in scalar.stages] == drives
    assert [s._last_drive for s in batch.stages] == drives

    # The scene reaches the paths it is there for.
    assert any(e.first_match is not None for e in expected)
    if early and len(segments) > 1:
        assert any(e.stage2_skipped for e in expected)
