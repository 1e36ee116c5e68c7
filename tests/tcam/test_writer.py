"""Tests for the batch write scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import CapacityError, TCAMError
from repro.tcam import ArrayGeometry, random_word
from repro.tcam.writer import WriteScheduler


def _setup(rows=8, cols=16, seed=0):
    rng = np.random.default_rng(seed)
    arr = build_array(get_design("fefet2t"), ArrayGeometry(rows, cols))
    return arr, WriteScheduler(arr), rng


class TestPlanning:
    def test_fresh_array_writes_everything(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(5)]
        plan = sched.plan(desired)
        assert len(plan.writes) == 5
        assert plan.invalidations == ()
        assert plan.unchanged == ()

    def test_identical_content_is_noop(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(5)]
        sched.update(desired)
        plan = sched.plan(desired)
        assert plan.writes == () and plan.invalidations == ()
        assert len(plan.unchanged) == 5

    def test_single_change_writes_one_row(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(5)]
        sched.update(desired)
        desired[2] = random_word(16, rng)
        plan = sched.plan(desired)
        assert len(plan.writes) == 1
        assert plan.writes[0][0] == 2

    def test_shrinking_table_invalidates_tail(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(6)]
        sched.update(desired)
        plan = sched.plan(desired[:4])
        assert plan.invalidations == (4, 5)

    def test_rejects_overflow(self, rng):
        arr, sched, _ = _setup(rows=4)
        with pytest.raises(CapacityError):
            sched.plan([random_word(16, rng) for _ in range(5)])

    def test_rejects_width_mismatch(self, rng):
        arr, sched, _ = _setup()
        with pytest.raises(TCAMError):
            sched.plan([random_word(8, rng)])


class TestApplication:
    def test_apply_updates_array(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(3)]
        plan, ledger, latency = sched.update(desired)
        for row, word in enumerate(desired):
            assert arr.word_at(row) == word
        assert ledger.total > 0.0
        assert latency > 0.0

    def test_incremental_update_cheaper_than_rewrite(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(8)]
        _, e_initial, _ = sched.update(desired)

        desired[3] = random_word(16, rng)
        _, e_incremental, _ = sched.update(desired)
        assert e_incremental.total < 0.3 * e_initial.total

    def test_invalidation_applied(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(4)]
        sched.update(desired)
        sched.update(desired[:2])
        assert not arr.valid_mask()[2:].any()

    def test_serial_latency_sums(self, rng):
        arr, sched, _ = _setup()
        desired = [random_word(16, rng) for _ in range(4)]
        plan = sched.plan(desired)
        _, latency = sched.apply(plan)
        # Four rows write serially, each paying one erase+program phase pair.
        per_row = 2 * arr.cell.params.fefet.program_width
        assert latency == pytest.approx(4 * per_row)
