"""Deterministic process-parallel execution layer.

Fan work out across a stdlib ``ProcessPoolExecutor`` while keeping every
result bit-identical to a serial run: chunk boundaries and per-chunk
random seeds depend only on the problem size, worker functions are pure,
and each worker's span tree + metrics registry is captured and merged
back into the parent observability session (one ``parallel.chunk[i]``
span per chunk) so the span-sum==ledger invariant survives the process
boundary.  Falls back to in-process serial execution whenever
``workers <= 1``, the function/payloads do not pickle, or the pool
cannot start.  See DESIGN.md §8.

One transport moves chunk data: :func:`scatter_gather` pickles each
chunk's payload whole.  Its callers are the fan-outs whose payloads are
worth a process: design-space exploration (``run_dse``) and the fault
campaign.  The chunk seeding (:func:`chunk_bounds`, :func:`spawn_seeds`)
also fixes the random streams of the in-process Monte-Carlo runs.
Worker pools are kept warm across calls; :func:`shutdown_pools` tears
them down and runs at interpreter exit.
"""

import atexit

from .executor import resolve_workers, scatter_gather, shutdown_pools
from .seeding import chunk_bounds, spawn_seeds

atexit.register(shutdown_pools, wait=True)

__all__ = [
    "chunk_bounds",
    "resolve_workers",
    "scatter_gather",
    "shutdown_pools",
    "spawn_seeds",
]
