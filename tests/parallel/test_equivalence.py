"""Serial vs N-worker bit-identity for every parallelized consumer.

The contract under test: for any worker count, the parallel layer
produces results bit-identical to serial -- sampled MC margins and sweep
rows.  The array and chip batch paths run in-process and are checked
against the per-key scalar loop, ledgers, kernel counters and the
search-line drive state included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import Sweep, critical_keys, run_array_mc, run_margin_mc
from repro.analysis import montecarlo as mc_mod
from repro.core import build_array, get_design
from repro.devices.variability import NOMINAL_VARIATION
from repro.errors import AnalysisError
from repro.tcam import ArrayGeometry, reference
from repro.tcam.chip import GatingPolicy, TCAMChip
from repro.tcam.trit import random_word

WORKER_COUNTS = (2, 4)


def _eval_square(v):
    return {"y": float(v) ** 2}


def _eval_fail_at_two(v):
    if v == 2:
        raise ValueError("deliberate")
    return {"y": float(v)}


class TestMonteCarloEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_margin_mc_bit_identical(self, workers, monkeypatch):
        # Small chunks so a small sample count still spans many chunks.
        monkeypatch.setattr(mc_mod, "MC_CHUNK_SAMPLES", 16)
        array = build_array(get_design("fefet2t"), ArrayGeometry(8, 16))
        serial = run_margin_mc(array, NOMINAL_VARIATION, n_samples=70, seed=7, workers=1)
        par = run_margin_mc(array, NOMINAL_VARIATION, n_samples=70, seed=7, workers=workers)
        assert np.array_equal(serial.margins, par.margins)
        assert np.array_equal(serial.failures, par.failures)
        assert serial.failure_rate == par.failure_rate
        assert serial.margin_mean == par.margin_mean
        assert serial.margin_sigma == par.margin_sigma

    def test_margin_mc_independent_of_chunk_boundary_only_workers(self, monkeypatch):
        # Same chunk size, different worker counts: identical streams.
        monkeypatch.setattr(mc_mod, "MC_CHUNK_SAMPLES", 16)
        array = build_array(get_design("fefet2t"), ArrayGeometry(8, 16))
        runs = [
            run_margin_mc(array, NOMINAL_VARIATION, n_samples=50, seed=3, workers=w)
            for w in (1, 2, 4)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].margins, other.margins)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_array_mc_bit_identical(self, workers):
        geo = ArrayGeometry(rows=8, cols=16)
        rng = np.random.default_rng(9)
        words = [random_word(geo.cols, rng, x_fraction=0.2) for _ in range(geo.rows)]
        keys = critical_keys(words, rng, per_word=2)
        serial = run_array_mc(
            geo, NOMINAL_VARIATION, words, keys, n_instances=3, seed=5, workers=1
        )
        par = run_array_mc(
            geo, NOMINAL_VARIATION, words, keys, n_instances=3, seed=5, workers=workers
        )
        assert serial == par


class TestSweepEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_rows_identical(self, workers):
        serial = Sweep(knob="v", values=[0.5, 0.7, 0.9, 1.1], evaluate=_eval_square).run()
        par = Sweep(knob="v", values=[0.5, 0.7, 0.9, 1.1], evaluate=_eval_square).run(
            workers=workers
        )
        assert serial.rows == par.rows
        assert serial.knob == par.knob

    def test_lambda_evaluator_still_works_with_workers(self):
        # Unpicklable evaluators silently fall back to the serial path.
        sweep = Sweep(knob="n", values=[1, 2, 3], evaluate=lambda n: {"y": n * 3.0})
        assert sweep.run(workers=4).column("y") == [3.0, 6.0, 9.0]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_evaluator_exception_names_knob_value(self, workers):
        sweep = Sweep(knob="freq", values=[1, 2, 3], evaluate=_eval_fail_at_two)
        with pytest.raises(AnalysisError, match=r"freq=2.*deliberate"):
            sweep.run(workers=workers)

    def test_knob_conflict_detected_with_workers(self):
        sweep = Sweep(knob="n", values=[1], evaluate=lambda n: {"n": 99})
        with pytest.raises(AnalysisError, match="conflicting"):
            sweep.run(workers=2)


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
        assert set(batch_array.kernel._rows) == drivens

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
