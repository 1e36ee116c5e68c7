"""Deterministic chunk seeding for parallel Monte-Carlo work.

The contract of the whole parallel layer is that results are bit-identical
to a serial run for *any* worker count.  For stochastic workloads that is
only possible when the random stream consumed by each chunk of work is a
function of the chunk's identity alone -- never of which worker executes
it or of how many workers exist.  The scheme here is the standard
``numpy`` one: a root :class:`numpy.random.SeedSequence` is spawned into
one child per chunk, the chunk partitioning itself depends only on the
item count (see :func:`chunk_bounds`), and every chunk builds its own
``default_rng`` from its child sequence.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParallelError


def spawn_seeds(
    seed: int | np.random.SeedSequence, n: int
) -> list[np.random.SeedSequence]:
    """``n`` independent child seed sequences of ``seed``.

    Args:
        seed: Root entropy -- a plain integer or an existing
            :class:`~numpy.random.SeedSequence`.
        n: Number of children (one per chunk).

    Raises:
        ParallelError: for a non-positive child count.
    """
    if n < 1:
        raise ParallelError(f"need at least one seed chunk, got {n}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(n)


def chunk_bounds(n_items: int, chunk_size: int) -> list[tuple[int, int]]:
    """``(start, stop)`` index bounds partitioning ``n_items`` items.

    The partition depends only on ``n_items`` and ``chunk_size`` -- every
    chunk but possibly the last holds exactly ``chunk_size`` items -- so
    chunk identities (and any per-chunk seeds) are stable across worker
    counts.

    Raises:
        ParallelError: for a negative item count or non-positive size.
    """
    if n_items < 0:
        raise ParallelError(f"item count must be non-negative, got {n_items}")
    if chunk_size < 1:
        raise ParallelError(f"chunk size must be >= 1, got {chunk_size}")
    return [(lo, min(lo + chunk_size, n_items)) for lo in range(0, n_items, chunk_size)]
