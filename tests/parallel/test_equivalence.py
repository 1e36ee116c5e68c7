"""In-process batch paths against their per-key loops.

The array and chip batch paths run in-process and are checked against
the per-key scalar loop, ledgers, kernel counters and the search-line
drive state included.  (Worker-count independence is checked where a
``workers=`` fan-out remains: ``tests/analysis/test_dse.py`` and the
fault-campaign tests.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.tcam import ArrayGeometry, reference
from repro.tcam.chip import GatingPolicy, TCAMChip
from repro.tcam.trit import random_word


def _loaded_array(design="fefet2t", rows=16, cols=32):
    array = build_array(get_design(design), ArrayGeometry(rows, cols))
    content_rng = np.random.default_rng(1)
    array.load([random_word(cols, content_rng, x_fraction=0.25) for _ in range(rows)])
    return array


def _outcomes_equal(a, b) -> bool:
    return (
        np.array_equal(a.match_mask, b.match_mask)
        and a.first_match == b.first_match
        and a.energy.as_dict() == b.energy.as_dict()
        and a.search_delay == b.search_delay
        and a.cycle_time == b.cycle_time
    )


class TestArraySearchBatchEquivalence:
    @pytest.mark.parametrize("design", ["fefet2t", "fefet_cr"])
    def test_outcomes_cache_and_drive_state(self, design):
        """Outcomes and drive state equal the scalar loop's; the kernel's
        table cache holds exactly the driven values the keys used."""
        rng = np.random.default_rng(11)
        keys = [random_word(32, rng, x_fraction=0.2) for _ in range(25)]
        scalar_array, batch_array = _loaded_array(design), _loaded_array(design)
        scalar = [reference.search(scalar_array, k) for k in keys]
        batch = batch_array.search_batch(keys)
        assert all(_outcomes_equal(a, b) for a, b in zip(scalar, batch))
        assert [a.miss_histogram for a in scalar] == [b.miss_histogram for b in batch]
        assert scalar_array._last_drive == batch_array._last_drive
        drivens = {int(np.count_nonzero(k.as_array() != 2)) for k in keys}
        assert set(np.flatnonzero(batch_array.kernel._planes.built).tolist()) == drivens

    def test_consecutive_batches_share_cache_identically(self):
        """A second batch reuses the first batch's compiled rows and
        still equals the scalar loop."""
        rng = np.random.default_rng(4)
        keys_a = [random_word(32, rng) for _ in range(10)]
        keys_b = [random_word(32, rng) for _ in range(10)]
        scalar_array, batch_array = _loaded_array(), _loaded_array()
        for k in keys_a:
            reference.search(scalar_array, k)
        batch_array.search_batch(keys_a)
        built = batch_array.kernel.rows_built
        scalar = [reference.search(scalar_array, k) for k in keys_b]
        batch = batch_array.search_batch(keys_b)
        assert all(_outcomes_equal(a, b) for a, b in zip(scalar, batch))
        assert batch_array.kernel.rows_built == built


class TestChipSearchBatchEquivalence:
    def _fresh_chip(self):
        geo = ArrayGeometry(rows=8, cols=16)
        chip = TCAMChip(
            lambda: build_array(get_design("fefet2t"), geo),
            n_banks=3,
            gating=GatingPolicy(gate_idle_banks=True),
        )
        words_rng = np.random.default_rng(2)
        chip.load(
            [random_word(geo.cols, words_rng, x_fraction=0.2) for _ in range(20)]
        )
        return chip

    def _workload(self, n=21):
        rng = np.random.default_rng(3)
        keys = [random_word(16, rng) for _ in range(n)]
        banks = [int(b) for b in np.random.default_rng(4).integers(0, 3, size=n)]
        return keys, banks

    def test_batch_equals_scalar_loop_exactly(self, per_key_search):
        keys, banks = self._workload()
        scalar_chip, batch_chip, loop_chip = (
            self._fresh_chip(), self._fresh_chip(), self._fresh_chip()
        )
        with per_key_search():
            scalar = [
                scalar_chip.search(k, b, idle_time=1e-6) for k, b in zip(keys, banks)
            ]
        batch = batch_chip.search_batch(keys, banks, idle_time=1e-6)
        for k, b in zip(keys, banks):
            loop_chip.search_batch([k], b, idle_time=1e-6)
        for a, b in zip(scalar, batch):
            assert a.bank == b.bank and a.row == b.row
            assert a.latency == b.latency
            assert a.energy.as_dict() == b.energy.as_dict()
            assert np.array_equal(a.match_mask, b.match_mask)
        assert np.array_equal(scalar_chip._powered, batch_chip._powered)
        # Bank-internal state advanced as in the per-key loop: the
        # search-line drive chain, and the kernel counters (the scalar
        # reference runs no kernel, so those come from one-key batches).
        for i in range(batch_chip.n_banks):
            assert scalar_chip.banks[i]._last_drive == batch_chip.banks[i]._last_drive
            assert (
                batch_chip.banks[i].kernel.counters()
                == loop_chip.banks[i].kernel.counters()
            )

    def test_single_bank_broadcast(self):
        keys, _ = self._workload(8)
        chip_a, chip_b = self._fresh_chip(), self._fresh_chip()
        a = chip_a.search_batch(keys, 1)
        b = chip_b.search_batch(keys, [1] * len(keys))
        assert [o.energy.as_dict() for o in a] == [o.energy.as_dict() for o in b]
        assert all(o.bank == 1 for o in a)
