"""Pluggable batching policies for the serving layer.

A policy answers one question per admitted request: *how long may this
request wait for companions before its batch must dispatch?*  The
engine freezes the answer at admission time (``deadline = arrival +
wait_budget()``), so a batch's dispatch time is a pure function of the
arrival trace and the policy -- never of wall-clock timing.  Dispatch
fires at the earliest of:

* the head-of-queue request's frozen deadline,
* the moment the queue holds ``max_batch`` requests,

clamped to when the (single) search port is free.  ``max_wait=0``
therefore means *immediate dispatch*: a request never waits for
companions on an idle server, but requests that piled up while the port
was busy still leave as one batch -- the classic baseline behavior.

:class:`FixedPolicy` freezes one wait for every request;
:class:`AdaptivePolicy` scales the wait with a deterministic EWMA of
the observed interarrival gap, so the window shrinks under load (tail
latency) and grows when traffic is sparse (batch fill, energy).
"""

from __future__ import annotations

from ..errors import ServeError

#: Floor of the adaptive wait budget [s].
ADAPTIVE_MIN_WAIT = 0.0
#: EWMA weight of the newest interarrival gap in :class:`AdaptivePolicy`.
ADAPTIVE_ALPHA = 0.2


class BatchPolicy:
    """Base batching policy.

    Subclasses implement :meth:`wait_budget`; the engine calls
    :meth:`on_arrival` for every admitted request (in arrival order)
    *before* asking for that request's budget, which is the only place
    adaptive state may change.

    Attributes:
        max_batch: Hard batch-size ceiling handed to the backend.
    """

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)

    def on_arrival(self, t: float) -> None:
        """Observe one admitted arrival at modeled time ``t``."""

    def wait_budget(self) -> float:
        """Wait budget [s] frozen into the arriving request's deadline."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-ready parameter dump for reports and benchmarks."""
        return {"policy": type(self).__name__, "max_batch": self.max_batch}


class FixedPolicy(BatchPolicy):
    """Constant ``(max_batch, max_wait)`` coalescing window.

    ``FixedPolicy(1, 0.0)`` (see :func:`no_batching`) is the
    no-batching baseline: every request dispatches alone, as soon as the
    port frees up.
    """

    def __init__(self, max_batch: int, max_wait: float) -> None:
        super().__init__(max_batch)
        if max_wait < 0.0:
            raise ServeError(f"max_wait must be non-negative, got {max_wait}")
        self.max_wait = float(max_wait)

    def wait_budget(self) -> float:
        return self.max_wait

    def describe(self) -> dict:
        return {**super().describe(), "max_wait": self.max_wait}


class AdaptivePolicy(BatchPolicy):
    """Rate-tracking window: wait about as long as a full batch takes to
    arrive, bounded to ``[min_wait, max_wait]``.

    The interarrival estimate is an exponentially weighted moving
    average (weight :data:`ADAPTIVE_ALPHA` on the newest gap) updated
    once per admitted arrival -- deterministic state, so two runs over
    the same trace always produce the same deadlines.  The floor
    ``min_wait`` is :data:`ADAPTIVE_MIN_WAIT`.  Until the first gap is
    observed the budget is ``max_wait`` (nothing is known about the rate
    yet).
    """

    def __init__(self, max_batch: int, max_wait: float = 50e-6) -> None:
        super().__init__(max_batch)
        if max_wait < 0.0:
            raise ServeError(f"max_wait must be non-negative, got {max_wait}")
        self.min_wait = ADAPTIVE_MIN_WAIT
        self.max_wait = float(max_wait)
        self.alpha = ADAPTIVE_ALPHA
        self._last_arrival: float | None = None
        self._ewma_gap: float | None = None

    def on_arrival(self, t: float) -> None:
        if self._last_arrival is not None:
            gap = t - self._last_arrival
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                self._ewma_gap += self.alpha * (gap - self._ewma_gap)
        self._last_arrival = t

    def wait_budget(self) -> float:
        if self._ewma_gap is None:
            return self.max_wait
        want = (self.max_batch - 1) * self._ewma_gap
        return min(self.max_wait, max(self.min_wait, want))

    def describe(self) -> dict:
        return {
            **super().describe(),
            "min_wait": self.min_wait,
            "max_wait": self.max_wait,
            "alpha": self.alpha,
        }


def no_batching() -> FixedPolicy:
    """The batch=1, zero-wait baseline policy of the service frontier."""
    return FixedPolicy(max_batch=1, max_wait=0.0)


def make_policy(
    name: str, max_batch: int = 64, max_wait: float = 10e-6
) -> BatchPolicy:
    """Policy factory used by the CLI and the benchmark.

    ``none`` ignores ``max_batch``/``max_wait`` and returns the
    no-batching baseline; ``fixed``/``adaptive`` apply them.
    """
    if name == "none":
        return no_batching()
    if name == "fixed":
        return FixedPolicy(max_batch=max_batch, max_wait=max_wait)
    if name == "adaptive":
        return AdaptivePolicy(max_batch=max_batch, max_wait=max_wait)
    raise ServeError(f"unknown batching policy {name!r}")


#: Policy names accepted by :func:`make_policy`.
POLICY_NAMES = ("none", "fixed", "adaptive")
