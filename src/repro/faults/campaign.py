"""Seeded fault-map generators for reliability campaigns.

A :class:`FaultCampaign` turns one RNG draw into a :class:`FaultPlan`:
a fixed priority ordering over the array's cells plus a pre-drawn fault
kind and value for each.  Materializing the plan at a given density
takes the first ``round(density * rows * cols)`` cells of that order,
so the fault set at density ``d1 < d2`` is a strict subset of the set
at ``d2`` -- error rates are then monotone in density by construction,
which is what the density sweeps (and the CI smoke gate) rely on.

Three orderings are provided:

* ``random`` -- uniform permutation (independent cell defects),
* ``clustered`` -- cells ranked by distance to seeded cluster centers,
  growing contiguous defect blobs as density rises (litho/etch damage),
* ``wear`` -- weighted sampling without replacement, weights taken from
  per-cell write counts (:meth:`repro.tcam.array.TCAMArray.wear_counts`
  under a :class:`~repro.tcam.writer.WriteScheduler` workload), so
  heavily cycled cells fail first (endurance wear-out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FaultError
from .faultmap import FaultKind, FaultMap

GENERATOR_MODES = ("random", "clustered", "wear")

#: Default fault-kind mix of one drawn plan: equal parts of the four
#: cell-level categories.
DEFAULT_KIND_WEIGHTS: dict[FaultKind, float] = {
    FaultKind.STUCK_MATCH: 0.25,
    FaultKind.STUCK_MISS: 0.25,
    FaultKind.STUCK_TRIT: 0.25,
    FaultKind.RETENTION: 0.25,
}
#: Nominal retention Vt shift [V]; each ``RETENTION`` cell draws
#: uniformly from ``[0.5, 1.5] x RETENTION_VT_SHIFT``.
RETENTION_VT_SHIFT = 0.3


@dataclass(frozen=True)
class FaultPlan:
    """One drawn fault trajectory: who fails, in what order, and how.

    Attributes:
        rows: Array rows.
        cols: Array cols.
        order: Flat cell indices in failure order.
        kinds: Fault kind code per cell of ``order``.
        values: Fault value per cell of ``order`` (Vt shift or frozen
            trit, matching :class:`FaultMap` semantics).
    """

    rows: int
    cols: int
    order: np.ndarray
    kinds: np.ndarray
    values: np.ndarray

    def at_density(self, density: float) -> FaultMap:
        """Materialize the first ``density`` fraction of the failure order.

        Nested by construction: the map at a lower density is a subset
        of the map at any higher one.
        """
        if not 0.0 <= density <= 1.0:
            raise FaultError(f"density must be in [0, 1], got {density}")
        n = int(round(density * self.rows * self.cols))
        fault_map = FaultMap(self.rows, self.cols)
        for flat, kind, value in zip(self.order[:n], self.kinds[:n], self.values[:n]):
            row, col = divmod(int(flat), self.cols)
            fault_map.set_cell(row, col, FaultKind(int(kind)), float(value))
        return fault_map


class FaultCampaign:
    """Seeded generator of nested fault maps over one array shape.

    Cell fault kinds are drawn with the :data:`DEFAULT_KIND_WEIGHTS`
    probabilities; retention faults shift Vt around
    :data:`RETENTION_VT_SHIFT`.  The ``clustered`` mode grows from one
    cluster center per 64 cells (at least one).

    Args:
        rows: Array rows.
        cols: Array cols.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise FaultError(f"campaign shape must be at least 1x1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        weights = DEFAULT_KIND_WEIGHTS
        total = sum(weights.values())
        self._kinds = np.array([int(k) for k in weights], dtype=np.int8)
        self._probs = np.array([weights[k] / total for k in weights])
        self.n_clusters = max(1, (rows * cols) // 64)

    # ------------------------------------------------------------------

    def _draw_kinds(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        kinds = rng.choice(self._kinds, size=n, p=self._probs)
        values = np.zeros(n)
        retention = kinds == int(FaultKind.RETENTION)
        if retention.any():
            values[retention] = RETENTION_VT_SHIFT * rng.uniform(
                0.5, 1.5, size=int(retention.sum())
            )
        stuck = kinds == int(FaultKind.STUCK_TRIT)
        if stuck.any():
            values[stuck] = rng.integers(0, 3, size=int(stuck.sum())).astype(float)
        return kinds, values

    def _plan_from_order(
        self, order: np.ndarray, rng: np.random.Generator
    ) -> FaultPlan:
        kinds, values = self._draw_kinds(rng, order.size)
        return FaultPlan(
            rows=self.rows, cols=self.cols, order=order, kinds=kinds, values=values
        )

    def draw_random(self, rng: np.random.Generator) -> FaultPlan:
        """Uniformly random failure order (independent point defects)."""
        order = rng.permutation(self.rows * self.cols)
        return self._plan_from_order(order, rng)

    def draw_clustered(self, rng: np.random.Generator) -> FaultPlan:
        """Failure order growing outward from seeded cluster centers."""
        centers_r = rng.uniform(0, self.rows, size=self.n_clusters)
        centers_c = rng.uniform(0, self.cols, size=self.n_clusters)
        rr, cc = np.meshgrid(
            np.arange(self.rows), np.arange(self.cols), indexing="ij"
        )
        dist = np.full((self.rows, self.cols), np.inf)
        for r0, c0 in zip(centers_r, centers_c):
            dist = np.minimum(dist, np.hypot(rr - r0, cc - c0))
        # Tiny jitter breaks distance ties deterministically per draw.
        score = dist.ravel() + rng.uniform(0.0, 1e-6, size=dist.size)
        order = np.argsort(score, kind="stable")
        return self._plan_from_order(order, rng)

    def draw_wear(
        self, rng: np.random.Generator, wear_counts: np.ndarray
    ) -> FaultPlan:
        """Wear-proportional failure order (Efraimidis-Spirakis keys).

        Args:
            rng: Sample source.
            wear_counts: Per-cell write counts, shape ``(rows, cols)``
                (see :meth:`~repro.tcam.array.TCAMArray.wear_counts`);
                a cell's failure priority scales with ``count + 1``.
        """
        wear = np.asarray(wear_counts, dtype=float)
        if wear.shape != (self.rows, self.cols):
            raise FaultError(
                f"wear counts shape {wear.shape} does not match campaign "
                f"{self.rows}x{self.cols}"
            )
        if (wear < 0).any():
            raise FaultError("wear counts must be non-negative")
        weights = wear.ravel() + 1.0
        keys = rng.random(weights.size) ** (1.0 / weights)
        order = np.argsort(-keys, kind="stable")
        return self._plan_from_order(order, rng)

    def draw(
        self,
        mode: str,
        rng: np.random.Generator,
        wear_counts: np.ndarray | None = None,
    ) -> FaultPlan:
        """Draw one plan in the named mode (``random``/``clustered``/``wear``)."""
        if mode == "random":
            return self.draw_random(rng)
        if mode == "clustered":
            return self.draw_clustered(rng)
        if mode == "wear":
            if wear_counts is None:
                raise FaultError("wear mode needs per-cell wear counts")
            return self.draw_wear(rng, wear_counts)
        raise FaultError(f"mode must be one of {GENERATOR_MODES}, got {mode!r}")
