"""Deterministic modeled-time core of the serving layer.

The engine is a discrete-event simulation over *modeled* time: every
quantity that decides what happens next -- arrival timestamps, frozen
policy deadlines, port occupancy -- comes from the arrival trace and
the physics model, never from wall clocks or scheduler interleaving.
That is the whole reproducibility argument of the serving layer:

1. Requests are processed strictly in trace order (``seq``), which the
   asyncio front-end guarantees with a reorder buffer.
2. A request's coalescing deadline is frozen at admission
   (``deadline = arrival + policy.wait_budget()``), so adaptive policies
   are a deterministic fold over the arrival sequence.
3. A batch dispatches at ``D = max(server_free, min(head.deadline,
   t_full))`` where ``t_full`` is the arrival time of the request that
   fills the batch (infinity while the queue is short of ``max_batch``).
   ``offer()`` fires every dispatch that must precede the incoming
   arrival *before* admitting it; :meth:`ServeEngine.drain` advances to
   infinity, so partial batches leave at their head deadline -- the
   graceful-shutdown guarantee.

Same trace + same policy + same hardware seed therefore yields the same
per-request latency and energy records for any asyncio scheduling.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from .. import obs
from ..errors import ServeError
from ..tcam.outcome import as_batch
from ..tcam.trit import TernaryWord
from .admission import AdmissionControl
from .backend import DISPATCH_COMPONENT, ServiceModel
from .policy import BatchPolicy


@dataclass(frozen=True)
class Request:
    """One admitted lookup waiting for (or in) service.

    Attributes:
        seq: Position in the arrival trace (the determinism key).
        arrival: Modeled arrival time [s].
        key: Search key.
        bank: Destination bank.
        deadline: Frozen dispatch deadline [s] -- ``arrival`` plus the
            policy's wait budget at admission.
    """

    seq: int
    arrival: float
    key: TernaryWord
    bank: int
    deadline: float


@dataclass(frozen=True)
class RequestRecord:
    """Fully-served request with its modeled cost breakdown.

    Attributes:
        seq: Position in the arrival trace.
        arrival: Modeled arrival time [s].
        dispatch: Batch dispatch time [s] (``queue_wait = dispatch -
            arrival``).
        finish: Batch completion time [s] (``latency = finish -
            arrival``).
        batch_id: Running index of the batch that served this request.
        batch_size: Number of requests in that batch.
        matched: Whether the search matched any row.
        row: Matched row index (priority encoder winner), or ``None``.
        energy: Modeled energy charged to this request [J] -- its own
            search plus an even share of the batch dispatch overhead.
    """

    seq: int
    arrival: float
    dispatch: float
    finish: float
    batch_id: int
    batch_size: int
    matched: bool
    row: int | None
    energy: float

    @property
    def queue_wait(self) -> float:
        """Time spent waiting for dispatch [s]."""
        return self.dispatch - self.arrival

    @property
    def latency(self) -> float:
        """Arrival-to-completion modeled latency [s]."""
        return self.finish - self.arrival

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (used by the CLI's ``--dump-records``)."""
        return {
            "seq": self.seq,
            "arrival": self.arrival,
            "dispatch": self.dispatch,
            "finish": self.finish,
            "queue_wait": self.queue_wait,
            "latency": self.latency,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "matched": self.matched,
            "row": self.row,
            "energy": self.energy,
        }


class ServeEngine:
    """Deterministic ingress: admission, coalescing, dispatch, accounting.

    Drive it with :meth:`offer` once per trace request **in seq order**,
    then :meth:`drain` to flush partial batches.  Both return the
    request records completed by that call, in dispatch order.

    The engine keeps exact conservation counts -- after a drain,
    ``offered == completed + rejected`` -- which :meth:`check_conservation`
    asserts and the CI smoke gate relies on.

    Args:
        backend: :class:`~repro.serve.backend.ArrayBackend` or
            :class:`~repro.serve.backend.ChipBackend` to dispatch to.
        policy: Batching policy (frozen-deadline contract).
        admission: Bounded-queue admission control.
        model: Per-dispatch overhead model.
    """

    def __init__(
        self,
        backend,
        policy: BatchPolicy,
        admission: AdmissionControl | None = None,
        model: ServiceModel | None = None,
    ) -> None:
        self.backend = backend
        self.policy = policy
        self.admission = admission if admission is not None else AdmissionControl()
        self.model = model if model is not None else ServiceModel()
        self._pending: deque[Request] = deque()
        self._server_free = 0.0
        self._next_seq = 0
        self._batch_id = 0
        self.offered = 0
        self.rejected = 0
        self.completed = 0
        self.batches = 0
        self.rejected_seqs: list[int] = []
        self.busy_time = 0.0
        self.energy_total = 0.0

    # -- ingress ------------------------------------------------------------

    def offer(
        self, seq: int, arrival: float, key: TernaryWord, bank: int
    ) -> list[RequestRecord]:
        """Process one trace arrival; return records it caused to complete.

        Dispatches every batch whose dispatch time precedes ``arrival``
        first, so the queue the admission decision sees is exactly the
        queue at the arrival instant.
        """
        if seq != self._next_seq:
            raise ServeError(
                f"requests must be offered in trace order: expected seq "
                f"{self._next_seq}, got {seq}"
            )
        self._next_seq += 1
        done = self._advance(arrival)
        self.offered += 1
        m = obs.metrics()
        if m is not None:
            m.counter("serve.offered").inc()
        if not self.admission.admit(len(self._pending)):
            self.rejected += 1
            self.rejected_seqs.append(seq)
            if m is not None:
                m.counter("serve.rejected").inc()
            return done
        if m is not None:
            m.counter("serve.admitted").inc()
        self.policy.on_arrival(arrival)
        deadline = arrival + self.policy.wait_budget()
        self._pending.append(Request(seq, arrival, key, bank, deadline))
        return done

    def drain(self) -> list[RequestRecord]:
        """Dispatch everything still queued (graceful shutdown).

        Advances modeled time to infinity: partial batches leave at
        their head-of-queue deadline (or when the port frees up).
        """
        return self._advance(math.inf)

    # -- dispatch -----------------------------------------------------------

    def _next_dispatch(self) -> float:
        """Dispatch time of the current head batch (inf if queue empty)."""
        if not self._pending:
            return math.inf
        if len(self._pending) >= self.policy.max_batch:
            t_full = self._pending[self.policy.max_batch - 1].arrival
        else:
            t_full = math.inf
        return max(self._server_free, min(self._pending[0].deadline, t_full))

    def _advance(self, now: float) -> list[RequestRecord]:
        """Fire every dispatch with time < ``now`` (<= for drain)."""
        done: list[RequestRecord] = []
        while self._pending:
            when = self._next_dispatch()
            if when >= now:
                break
            done.extend(self._dispatch(when))
        return done

    def _dispatch(self, when: float) -> list[RequestRecord]:
        """Serve one batch at modeled time ``when``."""
        size = min(self.policy.max_batch, len(self._pending))
        batch = [self._pending.popleft() for _ in range(size)]
        with obs.span(
            "serve.batch", batch_id=self._batch_id, batch_size=size
        ) as sp:
            outcomes = as_batch(
                self.backend.search_batch([r.key for r in batch], [r.bank for r in batch])
            )
            service = self.model.batch_service_time(outcomes)
            finish = when + service
            # Column reads: ``request_energy(outcome, model, size).total``
            # per request without a per-request ledger.
            share = self.model.e_overhead / size if self.model.e_overhead else None
            records = [
                RequestRecord(
                    seq=req.seq,
                    arrival=req.arrival,
                    dispatch=when,
                    finish=finish,
                    batch_id=self._batch_id,
                    batch_size=size,
                    matched=row is not None,
                    row=row,
                    energy=energy,
                )
                for req, row, energy in zip(
                    batch, outcomes.first_rows(), outcomes.energy_totals(share)
                )
            ]
            if sp is not None:
                # The backend's own instrumentation (array/chip search
                # spans) hangs off this span and carries the physics
                # energy; booking only the dispatch overhead here keeps
                # the span-sum invariant double-count free.
                if self.model.e_overhead:
                    sp.energy.add(DISPATCH_COMPONENT, self.model.e_overhead)
                sp.set_delay(service)
                sp.annotate(dispatch_time=when, queue_depth=len(self._pending))
        self._server_free = finish
        self._batch_id += 1
        self.batches += 1
        self.completed += size
        self.busy_time += service
        self.energy_total += sum(r.energy for r in records)
        m = obs.metrics()
        if m is not None:
            m.counter("serve.completed").inc(size)
            m.counter("serve.batches").inc()
            m.histogram("serve.batch_size").observe(size)
            for rec in records:
                m.histogram("serve.queue_wait").observe(rec.queue_wait)
                m.histogram("serve.latency").observe(rec.latency)
                m.histogram("serve.energy_per_request").observe(rec.energy)
        return records

    # -- accounting ---------------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests currently waiting for dispatch."""
        return len(self._pending)

    def check_conservation(self) -> None:
        """Assert ``offered == completed + rejected`` with an empty queue.

        Raises:
            ServeError: if any request was lost or double-counted.
        """
        if self._pending:
            raise ServeError(
                f"conservation check requires a drained queue "
                f"({len(self._pending)} requests still pending)"
            )
        if self.offered != self.completed + self.rejected:
            raise ServeError(
                f"request conservation violated: offered={self.offered} != "
                f"completed={self.completed} + rejected={self.rejected}"
            )
