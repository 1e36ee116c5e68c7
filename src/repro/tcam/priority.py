"""Match reduction: priority encoding.

A TCAM search produces one match signal per row; a priority encoder
reduces them to the index of the highest-priority (lowest row index)
match.  Its energy is small next to the match lines but it is part of a
complete accounting, and its delay grows with the row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import TCAMError


@dataclass(frozen=True)
class PriorityEncoder:
    """Logarithmic-tree priority encoder over ``n_rows`` match signals.

    Attributes:
        n_rows: Number of match-line inputs.
        e_per_row: Switched energy per input per lookup [J] -- a couple of
            small gates' worth.
        t_stage: Delay per tree stage [s].
    """

    n_rows: int
    e_per_row: float = 0.05e-15
    t_stage: float = 25e-12

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise TCAMError(f"n_rows must be >= 1, got {self.n_rows}")
        if self.e_per_row < 0.0 or self.t_stage < 0.0:
            raise TCAMError("encoder costs must be non-negative")

    @property
    def n_stages(self) -> int:
        """Depth of the reduction tree."""
        return max(1, math.ceil(math.log2(self.n_rows)))

    @property
    def energy_per_search(self) -> float:
        """Energy per lookup [J]."""
        return self.n_rows * self.e_per_row

    @property
    def delay(self) -> float:
        """Encoding latency [s]."""
        return self.n_stages * self.t_stage

    def encode(self, match_mask: np.ndarray) -> int | None:
        """Index of the first asserted match signal, or ``None``.

        >>> PriorityEncoder(4).encode(np.array([False, True, True, False]))
        1
        """
        mask = np.asarray(match_mask, dtype=bool)
        if mask.ndim != 1 or mask.size != self.n_rows:
            raise TCAMError(
                f"match mask must be 1-D of length {self.n_rows}, got shape {mask.shape}"
            )
        hits = np.flatnonzero(mask)
        if hits.size == 0:
            return None
        return int(hits[0])
