"""Seeded open-loop arrival processes for the serving layer.

A load generator produces an :class:`ArrivalTrace`: modeled arrival
timestamps, one search key per request, and a bank assignment.  Traces
are **open loop** -- arrival times never depend on how fast the server
answers -- which is what makes the swept offered-load points of the
service frontier comparable, and they are a pure function of their seed
and parameters, which is what makes serving runs bit-reproducible.

Three processes cover the workload shapes the frontier sweeps:

* :func:`poisson_trace` -- memoryless arrivals at one rate; the neutral
  baseline of every queueing result.
* :func:`mmpp_trace` -- a 2-state Markov-modulated Poisson process: the
  rate flips between a quiet and a burst level with exponentially
  distributed dwell times.  Bursts are what batching policies and
  bounded queues are actually for.
* :func:`diurnal_trace` -- a non-homogeneous Poisson process whose rate
  follows a sinusoidal daily profile (thinning construction), replaying
  a compressed day of traffic through the service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ServeError
from ..tcam.trit import TernaryWord, random_word

#: MMPP burst-state rate over quiet-state rate.
MMPP_BURST_RATIO = 8.0
#: Long-run fraction of time the MMPP spends bursting.
MMPP_BURST_FRACTION = 0.2
#: Mean MMPP state dwell, in mean interarrival times (``1 / rate``).
MMPP_DWELL_GAPS = 20.0
#: Peak-to-mean rate swing of the diurnal profile.
DIURNAL_AMPLITUDE = 0.6


@dataclass(frozen=True)
class ArrivalTrace:
    """One reproducible open-loop request stream.

    Attributes:
        process: Generator name (``poisson``/``mmpp``/``diurnal``).
        seed: Seed the trace was drawn from.
        times: Modeled arrival timestamps [s], non-decreasing (ties
            allowed), shape ``(n,)``.
        keys: One search key per request.
        banks: Bank index per request (all zero for single-array
            backends), shape ``(n,)``.
    """

    process: str
    seed: int
    times: np.ndarray
    keys: list[TernaryWord]
    banks: np.ndarray

    def __post_init__(self) -> None:
        if len(self.keys) != self.times.shape[0] or self.banks.shape != self.times.shape:
            raise ServeError(
                f"trace fields disagree: {self.times.shape[0]} times, "
                f"{len(self.keys)} keys, {self.banks.shape[0]} banks"
            )
        if self.times.size and np.any(np.diff(self.times) < 0.0):
            raise ServeError("arrival times must be non-decreasing")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def offered_rate(self) -> float:
        """Mean offered arrival rate over the trace [requests/s]."""
        if len(self) < 2:
            return 0.0
        span = float(self.times[-1] - self.times[0])
        return (len(self) - 1) / span if span > 0.0 else float("inf")

    def __iter__(self) -> Iterator[tuple[int, float, TernaryWord, int]]:
        """Yield ``(seq, arrival_time, key, bank)`` in arrival order."""
        for seq in range(len(self)):
            yield seq, float(self.times[seq]), self.keys[seq], int(self.banks[seq])


def _finish(
    process: str,
    seed: int,
    times: np.ndarray,
    rng: np.random.Generator,
    cols: int,
    n_banks: int,
) -> ArrivalTrace:
    """Draw keys/banks for already-fixed times and assemble the trace.

    Keys are fully specified (no don't-care trits)."""
    n = times.shape[0]
    keys = [random_word(cols, rng) for _ in range(n)]
    banks = rng.integers(0, n_banks, size=n) if n_banks > 1 else np.zeros(n, dtype=np.int64)
    return ArrivalTrace(
        process=process, seed=seed, times=times, keys=keys, banks=banks
    )


def _validate(n_requests: int, rate: float, cols: int, n_banks: int) -> None:
    if n_requests < 1:
        raise ServeError(f"n_requests must be >= 1, got {n_requests}")
    if rate <= 0.0:
        raise ServeError(f"arrival rate must be positive, got {rate}")
    if cols < 1:
        raise ServeError(f"cols must be >= 1, got {cols}")
    if n_banks < 1:
        raise ServeError(f"n_banks must be >= 1, got {n_banks}")


def poisson_trace(
    n_requests: int,
    rate: float,
    cols: int,
    seed: int = 0,
    n_banks: int = 1,
) -> ArrivalTrace:
    """Homogeneous Poisson arrivals at ``rate`` requests/s.

    Args:
        n_requests: Trace length.
        rate: Mean arrival rate [requests/s].
        cols: Key width (array/bank columns).
        seed: RNG seed; same seed, same trace, always.
        n_banks: Banks to spread requests over (uniform).
    """
    _validate(n_requests, rate, cols, n_banks)
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n_requests))
    return _finish("poisson", seed, times, rng, cols, n_banks)


def mmpp_trace(
    n_requests: int,
    rate: float,
    cols: int,
    seed: int = 0,
    n_banks: int = 1,
) -> ArrivalTrace:
    """2-state Markov-modulated Poisson process (bursty arrivals).

    The process alternates between a quiet state and a burst state whose
    rate is :data:`MMPP_BURST_RATIO` times the quiet rate, bursting a
    long-run :data:`MMPP_BURST_FRACTION` of the time; dwell times in each
    state are exponential around a mean of :data:`MMPP_DWELL_GAPS` mean
    interarrival times (``20 / rate``), so a trace sees many state
    flips.  The two rates are chosen so the *time-averaged* rate equals
    ``rate``, making MMPP points directly comparable with Poisson points
    at the same offered load.

    Args:
        n_requests: Trace length.
        rate: Time-averaged arrival rate [requests/s].
        cols: Key width.
        seed: RNG seed.
        n_banks: Banks to spread requests over.
    """
    _validate(n_requests, rate, cols, n_banks)
    burst_ratio, burst_fraction = MMPP_BURST_RATIO, MMPP_BURST_FRACTION
    # rate = (1-f)*r_quiet + f*ratio*r_quiet  =>  solve for r_quiet.
    r_quiet = rate / (1.0 - burst_fraction + burst_fraction * burst_ratio)
    r_burst = burst_ratio * r_quiet
    mean_dwell = MMPP_DWELL_GAPS / rate
    rng = np.random.default_rng(seed)
    times = np.empty(n_requests)
    t = 0.0
    bursting = False
    # Dwell means per state keep the long-run burst fraction at the
    # requested value: quiet dwells are proportionally longer.
    dwell_quiet = mean_dwell * (1.0 - burst_fraction) * 2.0
    dwell_burst = mean_dwell * burst_fraction * 2.0
    state_left = float(rng.exponential(dwell_quiet))
    for i in range(n_requests):
        while True:
            r = r_burst if bursting else r_quiet
            gap = float(rng.exponential(1.0 / r))
            if gap <= state_left:
                state_left -= gap
                t += gap
                times[i] = t
                break
            # State flips before the next arrival in this state would
            # land; advance to the flip and redraw in the new state.
            t += state_left
            bursting = not bursting
            state_left = float(
                rng.exponential(dwell_burst if bursting else dwell_quiet)
            )
    return _finish("mmpp", seed, times, rng, cols, n_banks)


def diurnal_trace(
    n_requests: int,
    rate: float,
    cols: int,
    seed: int = 0,
    n_banks: int = 1,
) -> ArrivalTrace:
    """Sinusoidal-rate arrivals replaying a compressed diurnal cycle.

    A non-homogeneous Poisson process with
    ``lambda(t) = rate * (1 + amplitude * sin(2*pi*t / period))``, where
    ``amplitude`` is :data:`DIURNAL_AMPLITUDE` and
    ``period = n_requests / rate / 2``: half the trace's expected span
    ``n_requests / rate``, so a trace covers about two cycles.  It is
    drawn by thinning against the peak rate: candidate arrivals are
    generated at ``rate * (1 + amplitude)`` and accepted with
    probability ``lambda(t) / lambda_max``.  Thinning consumes its
    randomness in a fixed per-candidate order, so the trace is exactly
    reproducible from the seed.

    Args:
        n_requests: Trace length.
        rate: Mean (mid-cycle) arrival rate [requests/s].
        cols: Key width.
        seed: RNG seed.
        n_banks: Banks to spread requests over.
    """
    _validate(n_requests, rate, cols, n_banks)
    amplitude = DIURNAL_AMPLITUDE
    period = n_requests / rate / 2.0
    rng = np.random.default_rng(seed)
    lam_max = rate * (1.0 + amplitude)
    times = np.empty(n_requests)
    t = 0.0
    for i in range(n_requests):
        while True:
            t += float(rng.exponential(1.0 / lam_max))
            lam = rate * (1.0 + amplitude * np.sin(2.0 * np.pi * t / period))
            if float(rng.random()) * lam_max <= lam:
                times[i] = t
                break
    return _finish("diurnal", seed, times, rng, cols, n_banks)


#: Generator registry used by the CLI and the service benchmark.
ARRIVAL_PROCESSES = {
    "poisson": poisson_trace,
    "mmpp": mmpp_trace,
    "diurnal": diurnal_trace,
}
