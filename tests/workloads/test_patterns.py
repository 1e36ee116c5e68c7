"""Tests for the biased key stream."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads.patterns import PatternStream


class TestPatternStream:
    def test_full_flip_probability_changes_keys(self, rng):
        stream = PatternStream(cols=32, flip_probability=1.0, rng=rng)
        a = stream.next_key()
        b = stream.next_key()
        # Every column flips: b is the exact complement of a.
        assert all(x is not y for x, y in zip(a, b))

    def test_zero_flip_probability_repeats_key(self, rng):
        stream = PatternStream(cols=16, flip_probability=0.0, rng=rng)
        assert stream.next_key() == stream.next_key()

    def test_keys_fully_specified(self, rng):
        stream = PatternStream(cols=16, flip_probability=0.5, rng=rng)
        assert all(str(k).count("X") == 0 for k in stream.keys(5))

    def test_flip_statistics(self, rng):
        stream = PatternStream(cols=64, flip_probability=0.25, rng=rng)
        prev = stream.next_key()
        flips = 0
        n = 100
        for _ in range(n):
            cur = stream.next_key()
            flips += sum(1 for a, b in zip(prev, cur) if a is not b)
            prev = cur
        assert flips / (n * 64) == pytest.approx(0.25, abs=0.03)

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(WorkloadError):
            PatternStream(cols=4, flip_probability=1.5, rng=rng)

    def test_rejects_negative_count(self, rng):
        stream = PatternStream(cols=4, flip_probability=0.5, rng=rng)
        with pytest.raises(WorkloadError):
            stream.keys(-1)
