"""TCAM-as-a-service: asyncio ingress with dynamic batching.

The serving layer turns the chip/array models into a request-serving
system: seeded open-loop clients (:mod:`~repro.serve.arrivals`) submit
single-key lookups, a pluggable batching policy
(:mod:`~repro.serve.policy`) coalesces them into ``search_batch``
dispatches, bounded-queue admission control
(:mod:`~repro.serve.admission`) sheds overload, and every request is
booked with its modeled queue wait, batch service time and energy
share.  The deterministic modeled-time core
(:mod:`~repro.serve.engine`) makes runs bit-reproducible for any
asyncio scheduling; ``benchmarks/bench_service.py``
sweeps offered load x policy into the throughput / tail-latency /
energy frontier.
"""

from .admission import AdmissionControl
from .arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalTrace,
    diurnal_trace,
    mmpp_trace,
    poisson_trace,
)
from .backend import DISPATCH_COMPONENT, ArrayBackend, ChipBackend, ServiceModel
from .engine import Request, RequestRecord, ServeEngine
from .policy import (
    POLICY_NAMES,
    AdaptivePolicy,
    BatchPolicy,
    FixedPolicy,
    make_policy,
    no_batching,
)
from .service import ServiceReport, TCAMService, build_report, run_trace, serve_trace

__all__ = [
    "ARRIVAL_PROCESSES",
    "DISPATCH_COMPONENT",
    "POLICY_NAMES",
    "AdaptivePolicy",
    "AdmissionControl",
    "ArrayBackend",
    "ArrivalTrace",
    "BatchPolicy",
    "ChipBackend",
    "FixedPolicy",
    "Request",
    "RequestRecord",
    "ServeEngine",
    "ServiceModel",
    "ServiceReport",
    "TCAMService",
    "build_report",
    "diurnal_trace",
    "make_policy",
    "mmpp_trace",
    "no_batching",
    "poisson_trace",
    "run_trace",
    "serve_trace",
]
