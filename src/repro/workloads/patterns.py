"""Biased ternary key streams.

The "micro" workload behind the sweep figures: key streams with
controllable temporal correlation (which sets the search-line activity
factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from ..tcam.trit import TernaryWord


@dataclass
class PatternStream:
    """An endless stream of search keys with tunable temporal correlation.

    Attributes:
        cols: Key width.
        flip_probability: Per-column probability that a key differs from
            its predecessor.  1.0 gives independent keys (worst-case SL
            activity); small values model locality-heavy traffic.
        rng: Random generator.
    """

    cols: int
    flip_probability: float
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if self.cols < 1:
            raise WorkloadError(f"cols must be >= 1, got {self.cols}")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise WorkloadError(
                f"flip_probability must be in [0, 1], got {self.flip_probability}"
            )
        self._current = self.rng.integers(0, 2, size=self.cols).astype(np.int8)

    def next_key(self) -> TernaryWord:
        """Advance the stream and return the next (fully specified) key."""
        flips = self.rng.random(self.cols) < self.flip_probability
        self._current = np.where(flips, 1 - self._current, self._current).astype(np.int8)
        return TernaryWord(self._current.copy())

    def keys(self, n: int) -> list[TernaryWord]:
        """Materialize the next ``n`` keys."""
        if n < 0:
            raise WorkloadError(f"n must be non-negative, got {n}")
        return [self.next_key() for _ in range(n)]
