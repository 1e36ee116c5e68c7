"""Fault injection through the search path.

Two families of guarantees:

* **Fault-free equivalence** -- an attached but *empty* fault map must
  be a bit-for-bit no-op at array, segmented-bank, hierarchical-bank
  and chip level (same masks, same ledger floats, same delays).  Every
  comparison builds *fresh* instances per run: search-line toggle
  energy depends on drive history, so reusing one object would diverge
  for reasons unrelated to faults.
* **Damage locality and direction** -- a non-empty map may only change
  verdicts on rows it covers, and each fault kind pushes its row's
  decision the way the electrical model says it must.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import build_array, get_design
from repro.errors import TCAMError
from repro.faults import FaultKind, FaultMap
from repro.tcam import ArrayGeometry, TCAMArray, TCAMChip, reference
from repro.tcam.bank import HierarchicalBank, SegmentedBank
from repro.tcam.cells import FeFET2TCell
from repro.tcam.trit import TernaryWord, Trit, random_word

ROWS, COLS = 8, 12


def _words(seed=3, rows=ROWS, cols=COLS, x_fraction=0.2):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction=x_fraction) for _ in range(rows)]


def _keys(seed=17, n=6, cols=COLS):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng) for _ in range(n)]


def _fresh_array(words, design="fefet2t"):
    array = build_array(get_design(design), ArrayGeometry(len(words), COLS))
    array.load(words)
    return array


def _outcome_tuple(out):
    return (
        out.match_mask.tolist(),
        out.first_match,
        out.energy.as_dict(),
        out.search_delay,
        out.cycle_time,
    )


class TestEmptyMapEquivalence:
    @pytest.mark.parametrize("design", ["fefet2t", "fefet_cr", "cmos16t"])
    def test_array_scalar_and_batch(self, design):
        words, keys = _words(), _keys()
        golden = _fresh_array(words, design).search_batch(keys)
        arr = _fresh_array(words, design)
        arr.attach_faults(FaultMap(ROWS, COLS))
        assert arr.faults is not None
        faulted = arr.search_batch(keys)
        for g, f in zip(golden, faulted):
            assert _outcome_tuple(g) == _outcome_tuple(f)

    def test_segmented_bank(self):
        words, keys = _words(cols=16), _keys(cols=16)

        def bank():
            b = SegmentedBank(FeFET2TCell(), ArrayGeometry(ROWS, 16), probe_cols=4)
            b.load(words)
            return b

        golden = bank().search_batch(keys)
        faulted_bank = bank()
        faulted_bank.attach_faults(FaultMap(ROWS, 16))
        for g, f in zip(golden, faulted_bank.search_batch(keys)):
            assert _outcome_tuple(g) == _outcome_tuple(f)

    def test_hierarchical_bank(self):
        words, keys = _words(cols=16), _keys(cols=16)

        def bank():
            b = HierarchicalBank(
                FeFET2TCell(), ArrayGeometry(ROWS, 16), segment_cols=[4, 4, 8]
            )
            b.load(words)
            return b

        golden = bank().search_batch(keys)
        faulted_bank = bank()
        faulted_bank.attach_faults(FaultMap(ROWS, 16))
        for g, f in zip(golden, faulted_bank.search_batch(keys)):
            assert _outcome_tuple(g) == _outcome_tuple(f)

    def test_chip(self):
        words, keys = _words(rows=2 * ROWS), _keys()

        def chip():
            c = TCAMChip(
                lambda: TCAMArray(FeFET2TCell(), ArrayGeometry(ROWS, COLS)), n_banks=2
            )
            c.load(words)
            return c

        probes = [(k, b) for k in keys for b in (0, 1)]
        golden_chip = chip()  # one instance: SL energy depends on drive history
        golden = [golden_chip.search(k, bank=b) for k, b in probes]
        faulted = chip()
        faulted.attach_faults(FaultMap(2 * ROWS, COLS))
        for g, (k, b) in zip(golden, probes):
            f = faulted.search(k, bank=b)
            assert np.array_equal(g.match_mask, f.match_mask)
            assert g.first_match == f.first_match
            assert g.energy.as_dict() == f.energy.as_dict()

    def test_detach_restores_golden_path(self):
        words, keys = _words(), _keys(n=1)
        golden = _fresh_array(words).search(keys[0])
        arr = _fresh_array(words)
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 0, FaultKind.STUCK_MISS)
        arr.attach_faults(fm)
        arr.detach_faults()
        assert arr.faults is None
        assert _outcome_tuple(golden) == _outcome_tuple(arr.search(keys[0]))


def _uniform_words(code, rows=ROWS, cols=COLS):
    return [TernaryWord(np.full(cols, code, dtype=np.int8)) for _ in range(rows)]


def _key_with(code, at, base=0, cols=COLS):
    codes = np.full(cols, base, dtype=np.int8)
    codes[at] = code
    return TernaryWord(codes)


@pytest.mark.parametrize("design", ["fefet2t", "fefet_cr"])
class TestFaultKindsFlipDecisions:
    """Each kind, on both sensing styles, moves its row the right way."""

    def _array(self, design):
        return _fresh_array(_uniform_words(0), design)

    def test_stuck_match_hides_a_mismatch(self, design):
        key = _key_with(1, at=3)  # one mismatching column
        arr = self._array(design)
        assert not arr.search(key).match_mask[0]
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 3, FaultKind.STUCK_MATCH)
        arr2 = self._array(design)
        arr2.attach_faults(fm)
        out = arr2.search(key)
        assert out.match_mask[0]  # false match
        assert not out.match_mask[1:].any()

    def test_stuck_miss_kills_a_true_match(self, design):
        key = _key_with(0, at=0)  # exact match everywhere
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 5, FaultKind.STUCK_MISS)
        arr = self._array(design)
        arr.attach_faults(fm)
        out = arr.search(key)
        assert not out.match_mask[0]  # false miss
        assert out.match_mask[1:].all()

    def test_stuck_trit_serves_the_frozen_value(self, design):
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 2, FaultKind.STUCK_TRIT, value=1)
        arr = self._array(design)
        arr.attach_faults(fm)
        assert not arr.search(_key_with(0, at=0)).match_mask[0]
        assert arr.search(_key_with(1, at=2)).match_mask[0]

    def test_stuck_trit_frozen_at_x_matches_both(self, design):
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 2, FaultKind.STUCK_TRIT, value=int(Trit.X))
        arr = self._array(design)
        arr.attach_faults(fm)
        assert arr.search(_key_with(0, at=0)).match_mask[0]
        assert arr.search(_key_with(1, at=2)).match_mask[0]

    def test_retention_shift_weakens_the_pulldown(self, design):
        key = _key_with(1, at=3)
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 3, FaultKind.RETENTION, value=5.0)  # devastating Vt shift
        arr = self._array(design)
        arr.attach_faults(fm)
        out = arr.search(key)
        assert out.match_mask[0]  # pull-down too weak to discharge the ML
        assert not out.match_mask[1:].any()

    def test_dead_row_never_matches(self, design):
        key = _key_with(0, at=0)
        fm = FaultMap(ROWS, COLS)
        fm.set_dead_row(4)
        arr = self._array(design)
        arr.attach_faults(fm)
        out = arr.search(key)
        assert not out.match_mask[4]
        assert out.match_mask[0]

    def test_sa_offset_flips_a_marginal_decision(self, design):
        key = _key_with(0, at=0)  # every row matches
        fm = FaultMap(ROWS, COLS)
        fm.set_sa_offset(2, 10.0)  # offset far beyond any sensible margin
        arr = self._array(design)
        arr.attach_faults(fm)
        out = arr.search(key)
        assert not out.match_mask[2]
        assert out.match_mask[0]


class TestDamageLocality:
    def test_diffs_confined_to_covered_rows(self):
        from repro.faults import FaultCampaign

        words, keys = _words(x_fraction=0.1), _keys(n=8)
        rng = np.random.default_rng(11)
        fm = FaultCampaign(ROWS, COLS).draw_random(rng).at_density(0.1)
        covered = set(np.flatnonzero(fm.faulty_rows()).tolist())
        golden = _fresh_array(words).search_batch(keys)
        arr = _fresh_array(words)
        arr.attach_faults(fm)
        for g, f in zip(golden, arr.search_batch(keys)):
            diff = set(np.flatnonzero(g.match_mask != f.match_mask).tolist())
            assert diff <= covered

    def test_batch_equals_scalar_loop(self):
        words, keys = _words(), _keys(n=5)
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(1, 4, FaultKind.STUCK_MISS)
        fm.set_cell(6, 0, FaultKind.RETENTION, value=0.4)
        batch_arr = _fresh_array(words)
        batch_arr.attach_faults(fm.copy())
        scalar_arr = _fresh_array(words)
        scalar_arr.attach_faults(fm.copy())
        batched = batch_arr.search_batch(keys)
        for key, b in zip(keys, batched):
            assert _outcome_tuple(reference.search(scalar_arr, key)) == _outcome_tuple(b)

    def test_map_mutation_invalidates_cached_trajectories(self):
        words = _uniform_words(0)
        key = _key_with(1, at=3)
        arr = _fresh_array(words)
        fm = FaultMap(ROWS, COLS)
        arr.attach_faults(fm)
        assert not arr.search(key).match_mask[0]
        fm.set_cell(0, 3, FaultKind.STUCK_MATCH)  # mutate after a search
        assert arr.search(key).match_mask[0]
        fm.set_cell(0, 3, FaultKind.NONE)
        assert not arr.search(key).match_mask[0]

    def test_attach_shape_checked(self):
        arr = _fresh_array(_words())
        with pytest.raises(TCAMError):
            arr.attach_faults(FaultMap(ROWS + 1, COLS))

    def test_nearest_match_refuses_active_faults(self):
        arr = _fresh_array(_words())
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 0, FaultKind.STUCK_MATCH)
        arr.attach_faults(fm)
        with pytest.raises(TCAMError):
            arr.nearest_match(_keys(n=1)[0])
        # An attached-but-empty map is not active fault injection.
        arr.attach_faults(FaultMap(ROWS, COLS))
        arr.nearest_match(_keys(n=1)[0])


class TestObservabilityWithFaults:
    def test_span_sum_equals_ledger_and_metrics_count(self):
        words, keys = _words(), _keys(n=4)
        arr = _fresh_array(words)
        fm = FaultMap(ROWS, COLS)
        fm.set_cell(0, 3, FaultKind.RETENTION, value=0.4)
        fm.set_sa_offset(5, 0.05)
        arr.attach_faults(fm)
        with obs.observe() as sess:
            out = arr.search(keys[0])
        (root,) = sess.spans
        assert root.name == "array.search"
        assert root.total_energy().as_dict() == out.energy.as_dict()
        assert root.total_energy().total == out.energy.total
        assert sess.metrics.snapshot()["faults.searches"] == 1.0
        assert not obs.is_enabled()
