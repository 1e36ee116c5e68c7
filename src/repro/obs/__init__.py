"""Observability: trace spans, metrics and pluggable sinks.

The layer is **off by default** and designed so that instrumented hot
paths pay only a module-attribute check when it is off::

    from repro import obs

    with obs.observe(sinks=[obs.StdoutSummarySink()]) as session:
        outcome = array.search(key)

    session.spans[0].total_energy().total  # == outcome.energy.total

Instrumented library code never talks to a session directly; it calls
the two module-level accessors:

* :func:`span` -- returns a real span context manager while a session is
  active, or a shared no-op context manager otherwise,
* :func:`metrics` -- returns the active :class:`MetricsRegistry` or
  ``None``.

Sessions nest (the innermost wins and the outer one is restored on
exit), which keeps ``observe()`` usable inside already-traced code such
as the ``python -m repro trace`` CLI mode.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import Any

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import JsonLinesSink, NullSink, Sink, StdoutSummarySink, span_records
from .span import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricsRegistry",
    "NullSink",
    "ObservabilitySession",
    "Sink",
    "Span",
    "StdoutSummarySink",
    "Tracer",
    "disable",
    "enable",
    "is_enabled",
    "metrics",
    "observe",
    "session",
    "span",
    "span_records",
]


class ObservabilitySession:
    """One enabled stretch of tracing + metrics collection.

    Attributes:
        tracer: Collects span trees from instrumented code.
        metrics: The session's instrument registry.
        sinks: Exporters fed by :meth:`flush`.
    """

    __slots__ = ("tracer", "metrics", "sinks")

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.sinks: list[Sink] = list(sinks)

    @property
    def spans(self) -> list[Span]:
        """Finished top-level span trees."""
        return self.tracer.roots

    def flush(self) -> None:
        """Export the collected spans and metrics to every sink."""
        snapshot = self.metrics.snapshot()
        for sink in self.sinks:
            sink.export(self.tracer.roots, snapshot)


_SESSION: ObservabilitySession | None = None


class _NullSpanContext:
    """Shared no-op stand-in for ``tracer.span()`` when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


def is_enabled() -> bool:
    """True while an observability session is active."""
    return _SESSION is not None


def enable() -> ObservabilitySession:
    """Activate a fresh session without sinks (replacing any active one)
    and return it."""
    global _SESSION
    _SESSION = ObservabilitySession(())
    return _SESSION


def disable() -> None:
    """Deactivate observability (instrumentation reverts to no-ops)."""
    global _SESSION
    _SESSION = None


def session() -> ObservabilitySession | None:
    """The active session, or ``None``."""
    return _SESSION


@contextmanager
def observe(sinks: Iterable[Sink] = ()) -> Iterator[ObservabilitySession]:
    """Run a block with observability on; flush sinks on the way out.

    The previously active session (if any) is restored afterwards.
    """
    global _SESSION
    previous = _SESSION
    current = ObservabilitySession(sinks)
    _SESSION = current
    try:
        yield current
    finally:
        _SESSION = previous
        current.flush()


def span(name: str, **attrs: Any):
    """Span context manager for instrumented code.

    Yields the open :class:`Span` while a session is active, ``None``
    otherwise -- callers guard annotation work with ``if sp is not None``.
    """
    s = _SESSION
    if s is None:
        return _NULL_SPAN
    return s.tracer.span(name, **attrs)


def metrics() -> MetricsRegistry | None:
    """The active session's metrics registry, or ``None`` when disabled."""
    s = _SESSION
    return s.metrics if s is not None else None
