"""Shared-memory search transport vs the serial reference, end to end.

The chip's parallel ``search_batch`` ships the packed key matrix through
``multiprocessing.shared_memory`` instead of pickling it per bank chunk.
These tests pin the contract on the real entry point: for 1/2/4 workers
the outcomes are bit-identical to the serial run, and multi-worker runs
actually use the shm transport.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.parallel import last_payload_stats, shared_memory_available
from repro.tcam import ArrayGeometry, GatingPolicy, TCAMChip
from repro.tcam.trit import random_word

WORKER_COUNTS = (1, 2, 4)


def _fresh_chip():
    geo = ArrayGeometry(rows=8, cols=16)
    chip = TCAMChip(
        lambda: build_array(get_design("fefet2t"), geo),
        n_banks=3,
        gating=GatingPolicy(gate_idle_banks=True),
    )
    rng = np.random.default_rng(2)
    chip.load([random_word(geo.cols, rng, x_fraction=0.2) for _ in range(20)])
    return chip


def _outcomes_equal(a, b) -> bool:
    return (
        np.array_equal(a.match_mask, b.match_mask)
        and a.first_match == b.first_match
        and a.energy.as_dict() == b.energy.as_dict()
        and a.search_delay == b.search_delay
        and a.cycle_time == b.cycle_time
    )


class TestChipShmTransport:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_serial(self, workers):
        rng = np.random.default_rng(3)
        keys = [random_word(16, rng) for _ in range(21)]
        banks = [int(b) for b in np.random.default_rng(4).integers(0, 3, size=21)]
        serial = _fresh_chip().search_batch(keys, banks, idle_time=1e-6, workers=1)
        par = _fresh_chip().search_batch(keys, banks, idle_time=1e-6, workers=workers)
        for a, b in zip(serial, par):
            assert a.bank == b.bank
            assert a.row == b.row
            assert a.latency == b.latency
            assert a.energy.as_dict() == b.energy.as_dict()
        if workers > 1 and shared_memory_available():
            assert last_payload_stats()["transport"] == "shm"
