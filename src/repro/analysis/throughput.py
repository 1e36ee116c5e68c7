"""Throughput, power and energy-delay figures of merit (experiment R-T5).

TCAM papers summarize designs with derived metrics beyond raw energy:

* **throughput** -- searches per second at the minimum cycle time,
* **search power** -- energy x rate when running flat out,
* **energy-delay product (EDP)** -- the voltage-scaling-invariant figure
  of merit; a design that wins energy by running slowly does not win EDP,
* **throughput per watt** -- searches per joule, the datacenter metric.

:func:`characterize` measures all of them for one built array on a
canonical workload, so the comparison table R-T5 is a direct read-out.
It is the one canonical-workload evaluator (R-F9, the advisor, the
tornado, R-F3/R-F5/R-F10/R-F17) and needs only the array contract:
``load`` plus ``search_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError
from ..tcam.trit import random_word


@dataclass(frozen=True)
class ThroughputReport:
    """Derived figures of merit for one design at one geometry.

    Attributes:
        energy_per_search: Mean search energy [J].
        cycle_time: Worst observed cycle time [s].
        search_delay: Worst observed key-to-result latency [s].
        functional_errors: Rows mis-sensed over the whole workload
            (summed per-search ``functional_errors``).
        throughput: Searches per second at the cycle time [1/s].
        power_at_rate: Dynamic power running at full rate [W].
        edp: Energy-delay product [J*s].
        searches_per_joule: Inverse energy [1/J].
    """

    energy_per_search: float
    cycle_time: float
    search_delay: float
    functional_errors: int = 0

    @property
    def throughput(self) -> float:
        """Searches per second at the minimum cycle time."""
        return 1.0 / self.cycle_time

    @property
    def power_at_rate(self) -> float:
        """Dynamic power at full search rate [W]."""
        return self.energy_per_search * self.throughput

    @property
    def edp(self) -> float:
        """Energy-delay product [J*s] (delay = search latency)."""
        return self.energy_per_search * self.search_delay

    @property
    def searches_per_joule(self) -> float:
        """Throughput per watt [searches/J]."""
        return 1.0 / self.energy_per_search


def characterize(
    array,
    n_searches: int = 6,
    x_fraction: float = 0.3,
    seed: int | Sequence[int] = 55,
) -> ThroughputReport:
    """Measure the derived metrics on a canonical random workload.

    Loads ``rows`` random words, then answers ``n_searches`` random keys
    (drawn after the words, from one stream) in one ``search_batch``
    call: bit-identical to a per-key ``search`` loop over the same draws.

    Args:
        array: A loaded-or-loadable array exposing ``geometry``, ``load``
            and ``search_batch`` (the shared array contract).
        n_searches: Searches to average over.
        x_fraction: Stored don't-care density.
        seed: Workload seed (identical across designs): an int or a
            seed-key list, as :func:`numpy.random.default_rng` takes.
    """
    if n_searches < 1:
        raise AnalysisError(f"n_searches must be >= 1, got {n_searches}")
    rng = np.random.default_rng(seed)
    rows, cols = array.geometry.rows, array.geometry.cols
    array.load([random_word(cols, rng, x_fraction=x_fraction) for _ in range(rows)])
    outcomes = array.search_batch([random_word(cols, rng) for _ in range(n_searches)])

    energy = 0.0
    cycle = 0.0
    delay = 0.0
    errors = 0
    for out in outcomes:
        energy += out.energy_total
        cycle = max(cycle, out.cycle_time)
        delay = max(delay, out.search_delay)
        errors += out.functional_errors
    return ThroughputReport(
        energy_per_search=energy / n_searches,
        cycle_time=cycle,
        search_delay=delay,
        functional_errors=errors,
    )
