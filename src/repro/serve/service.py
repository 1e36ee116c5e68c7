"""Trace runner and report for the serving layer.

:func:`run_trace` feeds an arrival trace to the deterministic
:class:`~repro.serve.engine.ServeEngine` in trace order and drains it.
It returns a :class:`ServiceReport`: conservation counts, throughput,
p50/p95/p99 modeled latency (via the observability layer's
:class:`~repro.obs.metrics.Histogram` quantiles) and energy per
request -- one point of the throughput/tail-latency/energy frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..obs.metrics import Histogram
from ..tcam.outcome import SCHEMA_VERSION
from .admission import AdmissionControl
from .arrivals import ArrivalTrace
from .backend import ServiceModel
from .engine import RequestRecord, ServeEngine
from .policy import BatchPolicy


@dataclass
class ServiceReport:
    """Aggregate read-out of one serving run.

    Attributes:
        policy: ``describe()`` dump of the batching policy.
        admission: ``describe()`` dump of the admission control.
        trace: Arrival-trace parameters (process, seed, length, rate).
        offered: Requests that arrived at the ingress.
        completed: Requests served to completion.
        rejected: Requests shed by admission control.
        makespan: First arrival to last batch completion [s].
        throughput: Completed requests per second of makespan.
        batches: Batches dispatched.
        mean_batch_size: ``completed / batches`` (0 when idle).
        utilization: Port busy time over makespan.
        latency_p50/p95/p99: Modeled latency percentiles [s].
        mean_latency: Mean modeled latency [s].
        energy_total: Modeled energy over the run [J].
        energy_per_request: Mean energy per completed request [J].
        records: Per-request records in dispatch order.
        rejected_seqs: Trace positions of shed requests.
    """

    policy: dict[str, Any]
    admission: dict[str, Any]
    trace: dict[str, Any]
    offered: int
    completed: int
    rejected: int
    makespan: float
    throughput: float
    batches: int
    mean_batch_size: float
    utilization: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_latency: float
    energy_total: float
    energy_per_request: float
    records: list[RequestRecord] = field(repr=False)
    rejected_seqs: list[int] = field(repr=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the aggregate figures (no per-request rows)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "policy": self.policy,
            "admission": self.admission,
            "trace": self.trace,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "utilization": self.utilization,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "mean_latency": self.mean_latency,
            "energy_total": self.energy_total,
            "energy_per_request": self.energy_per_request,
        }


def build_report(
    engine: ServeEngine, trace: ArrivalTrace, records: list[RequestRecord]
) -> ServiceReport:
    """Aggregate a finished engine run into a :class:`ServiceReport`."""
    engine.check_conservation()
    lat = Histogram("serve.latency")
    for rec in records:
        lat.observe(rec.latency)
    if records:
        t0 = min(r.arrival for r in records)
        makespan = max(r.finish for r in records) - t0
        p50, p95, p99 = (lat.quantile(q) for q in (50.0, 95.0, 99.0))
        mean_latency = lat.total / lat.count
    else:
        makespan = 0.0
        p50 = p95 = p99 = mean_latency = 0.0
    n = len(records)
    return ServiceReport(
        policy=engine.policy.describe(),
        admission=engine.admission.describe(),
        trace={
            "process": trace.process,
            "seed": trace.seed,
            "n_requests": len(trace),
            "offered_rate": trace.offered_rate,
        },
        offered=engine.offered,
        completed=engine.completed,
        rejected=engine.rejected,
        makespan=makespan,
        throughput=n / makespan if makespan > 0.0 else 0.0,
        batches=engine.batches,
        mean_batch_size=n / engine.batches if engine.batches else 0.0,
        utilization=engine.busy_time / makespan if makespan > 0.0 else 0.0,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        mean_latency=mean_latency,
        energy_total=engine.energy_total,
        energy_per_request=engine.energy_total / n if n else 0.0,
        records=records,
        rejected_seqs=list(engine.rejected_seqs),
    )


def run_trace(
    backend,
    trace: ArrivalTrace,
    policy: BatchPolicy,
    admission: AdmissionControl | None = None,
    model: ServiceModel | None = None,
) -> ServiceReport:
    """Serve ``trace`` on ``backend`` under ``policy`` and report the run.

    Requests reach the engine in trace order; the final partial batches
    dispatch at their head deadlines when the engine drains.
    """
    engine = ServeEngine(backend, policy, admission=admission, model=model)
    records: list[RequestRecord] = []
    for seq, t, key, bank in trace:
        records.extend(engine.offer(seq, t, key, bank))
    records.extend(engine.drain())
    return build_report(engine, trace, records)
