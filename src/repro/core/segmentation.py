"""Probe-width optimization for segmented search.

A probe of ``s`` driven columns lets a random row survive stage 1 with
probability ``p_match^s`` where ``p_match`` is the per-column match
probability (1/2 for specified-vs-specified, 1 when either side is X).
Stage-2 ML energy therefore scales with the survivor fraction while
stage-1 energy grows with ``s`` -- the optimum probe width balances the
two.  :func:`optimal_probe_width` minimizes the analytic expected energy;
benchmark R-T2 cross-checks it against exact simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DesignError

#: Narrowest probe stage :func:`optimal_probe_width` considers [columns].
MIN_PROBE = 2


def expected_survivor_fraction(probe_cols: int, x_fraction: float) -> float:
    """Expected fraction of rows matching a random probe of ``probe_cols``.

    Args:
        probe_cols: Number of driven probe columns.
        x_fraction: Probability a stored trit is X.

    A stored column matches a random specified key bit with probability
    ``x + (1 - x)/2``.

    >>> round(expected_survivor_fraction(4, 0.0), 4)
    0.0625
    """
    if probe_cols < 0:
        raise DesignError(f"probe_cols must be non-negative, got {probe_cols}")
    if not 0.0 <= x_fraction <= 1.0:
        raise DesignError(f"x_fraction must be in [0, 1], got {x_fraction}")
    p_col = x_fraction + (1.0 - x_fraction) / 2.0
    return p_col**probe_cols


@dataclass(frozen=True)
class SegmentationPlan:
    """An optimized segmentation configuration.

    Attributes:
        probe_cols: Chosen probe width.
        survivor_fraction: Expected stage-1 survivor fraction.
        expected_energy_ratio: Predicted energy relative to the flat array
            (< 1 means segmentation wins).
    """

    probe_cols: int
    survivor_fraction: float
    expected_energy_ratio: float


def expected_energy_ratio(probe_cols: int, total_cols: int, x_fraction: float) -> float:
    """Analytic segmented/flat ML-energy ratio for a random workload.

    ML energy is roughly proportional to the number of (evaluated cells):
    stage 1 evaluates ``probe_cols`` on every row, stage 2 evaluates the
    remaining columns only on survivors.

    >>> expected_energy_ratio(0, 64, 0.0)
    1.0
    """
    if not 0 <= probe_cols <= total_cols:
        raise DesignError(f"probe_cols {probe_cols} outside [0, {total_cols}]")
    if total_cols < 1:
        raise DesignError(f"total_cols must be >= 1, got {total_cols}")
    if probe_cols == 0:
        return 1.0
    survivors = expected_survivor_fraction(probe_cols, x_fraction)
    tail = total_cols - probe_cols
    return (probe_cols + survivors * tail) / total_cols


def optimal_probe_width(total_cols: int, x_fraction: float = 0.0) -> SegmentationPlan:
    """Probe width minimizing the analytic expected ML energy.

    Probes of :data:`MIN_PROBE` columns and up are considered (a 1-column
    probe rarely has enough discrimination to be worth the extra stage).

    Args:
        total_cols: Word width; more than :data:`MIN_PROBE` columns.
        x_fraction: Stored don't-care density of the workload.
    """
    if total_cols <= MIN_PROBE:
        raise DesignError(
            f"need more than {MIN_PROBE} columns to segment, got {total_cols}"
        )
    best_s = MIN_PROBE
    best_ratio = math.inf
    for s in range(MIN_PROBE, total_cols):
        ratio = expected_energy_ratio(s, total_cols, x_fraction)
        if ratio < best_ratio:
            best_ratio = ratio
            best_s = s
    return SegmentationPlan(
        probe_cols=best_s,
        survivor_fraction=expected_survivor_fraction(best_s, x_fraction),
        expected_energy_ratio=best_ratio,
    )
