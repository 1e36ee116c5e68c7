"""Deterministic process-parallel fan-out with observability capture.

:func:`scatter_gather` runs one payload per chunk through a worker
function, either in a ``ProcessPoolExecutor`` or inline, and returns the
results in payload order.

Determinism contract
--------------------
Results are bit-identical to a serial run for any worker count because
(a) chunk boundaries depend only on problem size, (b) any randomness is
seeded per chunk by the caller (``spawn_seeds``), and (c) worker
functions are **pure**: they must not mutate shared state, because the
serial fallback calls them in-process and a pool failure triggers a
serial *rerun* of every payload.

Observability
-------------
Each worker runs its payload under its own ``obs.observe()`` session and
ships the finished span trees plus its ``MetricsRegistry`` back with the
result.  The parent grafts each worker's roots under one
``<prefix>.chunk[i]`` child span and merges the registries in chunk
order, so the span-sum==ledger invariant and metric totals survive the
process boundary.  The serial path opens the same ``<prefix>.chunk[i]``
spans and runs the function inline, producing an identical tree shape.

Serial fallback triggers: ``workers <= 1``, a single payload, a worker
function or payload that does not pickle (lambdas, closures), or a pool
that cannot start / dies (``BrokenProcessPool`` / ``OSError``).

Pools are *warm*: one ``ProcessPoolExecutor`` per worker count is kept
alive across calls (``shutdown_pools`` tears them down, and runs
atexit), so repeated fan-outs do not pay process start-up each time.
Each chunk's payload is pickled whole.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TypeVar

from .. import obs
from ..obs.metrics import MetricsRegistry
from ..obs.span import Span

_P = TypeVar("_P")
_R = TypeVar("_R")


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request: ``None``/0/negatives mean serial."""
    if workers is None:
        return 1
    return max(1, int(workers))


# -- warm pool cache -------------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(n_workers: int) -> ProcessPoolExecutor:
    """A warm pool of ``n_workers`` processes (created on first use)."""
    pool = _POOLS.get(n_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=n_workers)
        _POOLS[n_workers] = pool
    return pool


def _discard_pool(n_workers: int, wait: bool = False) -> None:
    """Drop a pool from the cache and shut it down.

    ``wait=False`` (the default) is the broken-pool path: abandon
    whatever is in flight.  ``wait=True`` drains the pool first.
    """
    pool = _POOLS.pop(n_workers, None)
    if pool is not None:
        try:
            pool.shutdown(wait=wait, cancel_futures=not wait)
        except Exception:  # pragma: no cover - best effort on a dead pool
            pass


def shutdown_pools(wait: bool = False) -> None:
    """Shut down every warm worker pool.

    Args:
        wait: Drain in-flight chunks before returning.  The interpreter-
            shutdown hook passes ``True``; interactive callers keep the
            fast default.
    """
    for n_workers in list(_POOLS):
        _discard_pool(n_workers, wait=wait)


def _run_chunk(fn: Callable[[_P], _R], payload: _P) -> tuple[_R, list[Span], MetricsRegistry]:
    """Worker-side wrapper: run ``fn`` under a fresh obs session.

    Returns the result together with the session's finished span roots
    and metrics registry so the parent can graft them into its own tree.
    """
    with obs.observe() as session:
        result = fn(payload)
    return result, session.tracer.roots, session.metrics


def _serial(
    fn: Callable[[_P], _R], payloads: Sequence[_P], span_prefix: str
) -> list[_R]:
    """In-process execution with the same span shape as the pool path."""
    results: list[_R] = []
    for i, payload in enumerate(payloads):
        with obs.span(f"{span_prefix}.chunk[{i}]"):
            results.append(fn(payload))
    return results


def _graft(
    gathered: Sequence[tuple[_R, list[Span], MetricsRegistry]], span_prefix: str
) -> list[_R]:
    """Attach worker span trees / metrics to the parent session, in order."""
    registry = obs.metrics()
    results: list[_R] = []
    for i, (result, roots, worker_metrics) in enumerate(gathered):
        with obs.span(f"{span_prefix}.chunk[{i}]") as sp:
            if sp is not None:
                sp.children.extend(roots)
        if registry is not None:
            registry.merge(worker_metrics)
        results.append(result)
    return results


def scatter_gather(
    fn: Callable[[_P], _R],
    payloads: Iterable[_P],
    *,
    workers: int | None = 0,
    span_prefix: str = "parallel",
) -> list[_R]:
    """Run ``fn`` over every payload, fanning out across processes.

    Args:
        fn: A *pure*, picklable function of one payload.  Exceptions it
            raises propagate to the caller.
        payloads: One payload per chunk of work; results come back in
            the same order.
        workers: Process count; ``<= 1`` (the default) runs serially
            in-process.
        span_prefix: Span-name prefix for the per-chunk grafting spans.

    Returns:
        ``[fn(p) for p in payloads]`` -- bit-identical to serial by the
        purity contract, whatever the worker count.
    """
    payloads = list(payloads)
    if not payloads:
        return []
    n_workers = min(resolve_workers(workers), len(payloads))
    if n_workers <= 1:
        return _serial(fn, payloads, span_prefix)
    try:
        pickle.dumps(fn)
        for p in payloads:
            pickle.dumps(p)
    except Exception:
        return _serial(fn, payloads, span_prefix)
    try:
        pool = _get_pool(n_workers)
        futures = [pool.submit(_run_chunk, fn, p) for p in payloads]
        # Two-phase: gather every worker result before touching the
        # parent span tree, so a mid-flight failure (which raises out
        # of this block) cannot leave a half-grafted tree behind.
        gathered = [future.result() for future in futures]
    except (BrokenProcessPool, OSError):
        # The pool itself died (fork failure, resource limits).  Workers
        # are pure, so rerunning everything serially is safe.
        _discard_pool(n_workers)
        return _serial(fn, payloads, span_prefix)
    return _graft(gathered, span_prefix)
