"""Arrival-process generators: determinism, rates, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import (
    ARRIVAL_PROCESSES,
    arrivals,
    diurnal_trace,
    mmpp_trace,
    poisson_trace,
)

COLS = 16


@pytest.mark.parametrize("name", sorted(ARRIVAL_PROCESSES))
class TestEveryProcess:
    def test_same_seed_same_trace(self, name):
        gen = ARRIVAL_PROCESSES[name]
        a = gen(100, rate=1e6, cols=COLS, seed=11)
        b = gen(100, rate=1e6, cols=COLS, seed=11)
        assert np.array_equal(a.times, b.times)
        assert a.keys == b.keys
        assert np.array_equal(a.banks, b.banks)

    def test_different_seed_different_trace(self, name):
        gen = ARRIVAL_PROCESSES[name]
        a = gen(100, rate=1e6, cols=COLS, seed=1)
        b = gen(100, rate=1e6, cols=COLS, seed=2)
        assert not np.array_equal(a.times, b.times)

    def test_times_increase_and_iterate_in_seq_order(self, name):
        trace = ARRIVAL_PROCESSES[name](50, rate=1e6, cols=COLS, seed=5)
        assert np.all(np.diff(trace.times) >= 0.0)
        seqs = [seq for seq, _, _, _ in trace]
        assert seqs == list(range(50))

    def test_offered_rate_near_requested(self, name):
        trace = ARRIVAL_PROCESSES[name](4000, rate=1e6, cols=COLS, seed=9)
        assert trace.offered_rate == pytest.approx(1e6, rel=0.25)

    def test_banks_cover_range(self, name):
        trace = ARRIVAL_PROCESSES[name](200, rate=1e6, cols=COLS, seed=3, n_banks=4)
        assert set(np.unique(trace.banks)) <= {0, 1, 2, 3}
        assert len(set(np.unique(trace.banks))) > 1

    def test_key_width_matches_cols(self, name):
        trace = ARRIVAL_PROCESSES[name](5, rate=1e6, cols=COLS, seed=3)
        assert all(len(k) == COLS for k in trace.keys)


class TestValidation:
    def test_rejects_bad_counts_and_rates(self):
        with pytest.raises(ServeError):
            poisson_trace(0, rate=1e6, cols=COLS)
        with pytest.raises(ServeError):
            poisson_trace(10, rate=0.0, cols=COLS)
        with pytest.raises(ServeError):
            poisson_trace(10, rate=1e6, cols=0)
        with pytest.raises(ServeError):
            poisson_trace(10, rate=1e6, cols=COLS, n_banks=0)

    def test_mmpp_parameter_ranges(self):
        """The burst constants keep a real burst state and a quiet one."""
        assert arrivals.MMPP_BURST_RATIO > 1.0
        assert 0.0 < arrivals.MMPP_BURST_FRACTION < 1.0
        assert arrivals.MMPP_DWELL_GAPS > 0.0

    def test_diurnal_parameter_ranges(self):
        """The swing keeps the rate positive; two cycles span the trace."""
        assert 0.0 <= arrivals.DIURNAL_AMPLITUDE < 1.0
        trace = diurnal_trace(4000, rate=1e6, cols=COLS, seed=3)
        cycles = (trace.times[-1] - trace.times[0]) / (4000 / 1e6 / 2.0)
        assert 1.5 < cycles < 2.5



class TestBurstiness:
    def test_mmpp_is_burstier_than_poisson(self):
        """Squared coefficient of variation of interarrival gaps: the
        MMPP must exceed the Poisson baseline (which has CV^2 ~= 1)."""

        def cv2(times):
            gaps = np.diff(times)
            return float(np.var(gaps) / np.mean(gaps) ** 2)

        p = poisson_trace(4000, rate=1e6, cols=COLS, seed=2)
        m = mmpp_trace(4000, rate=1e6, cols=COLS, seed=2)
        assert cv2(m.times) > 1.5 > cv2(p.times) * 1.2

    def test_diurnal_rate_oscillates(self):
        """Windowed arrival counts must swing well beyond Poisson noise."""
        trace = diurnal_trace(6000, rate=1e6, cols=COLS, seed=8)
        span = trace.times[-1] - trace.times[0]
        counts, _ = np.histogram(trace.times, bins=24)
        assert counts.max() > 1.5 * counts.min()
        assert span > 0.0
