"""Design-space exploration over the cell registry.

Every registered cell builds a flat or segmented array through the
same constructors, and its area and density come from the cell
descriptor, so the design space is a plain cross-product:

    {cell} x {rows} x {cols} x {segmentation} x {sensing} x {VDD}

:func:`run_dse` evaluates each :class:`DesignPoint` on a common random
workload (fanned out through :func:`~repro.parallel.scatter_gather`)
and reduces the cloud to its four-objective Pareto frontier:
minimize energy per stored bit, search delay and area per stored bit,
maximize match accuracy.  Multi-bit (``seemcam``) and analog (``fecam``)
cells make the accuracy axis meaningful -- they buy density with
sub-unity per-cell decision accuracy, a trade invisible to any
single-objective ranking.

Points that produce functional errors on the workload stay in the
report (the error count is part of the story -- analog windows stop
working at some word width) but are excluded from the frontier.

Within one :func:`run_dse` payload, flat arrays with equal electrical
signatures (:meth:`~repro.kernels.KernelEngine.adopt_tables`) share
one set of compiled kernel tables.  Row count is not part of the
signature, so a serial sweep over row counts compiles each table once.
The sharing pool lives for that one payload: nothing is cached across
runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ..errors import AnalysisError
from ..parallel import resolve_workers, scatter_gather
from ..tcam import reference
from ..tcam.array import SENSING_STYLES, ArrayGeometry, TCAMArray
from ..tcam.bank import SegmentedBank
from ..tcam.cells import get_cell, list_cells
from ..tcam.trit import Trit, random_word

#: Objectives minimized / maximized by the frontier reduction.  The
#: search path contributes energy/delay/area, the write path its own
#: energy and latency (volatile CMOS writes in a nanosecond what a
#: ferroelectric program sequence takes hundreds of nanoseconds over),
#: and accuracy is the axis the dense multi-bit/analog cells pay on.
MINIMIZE = (
    "energy_per_bit",
    "search_delay",
    "area_f2_per_bit",
    "write_energy_per_bit",
    "write_latency",
)
MAXIMIZE = ("accuracy",)


@dataclass(frozen=True)
class DesignPoint:
    """One coordinate of the design space.

    Attributes:
        cell: Cell registry key (see :func:`repro.tcam.cells.list_cells`).
        rows: Array rows.
        cols: Array columns.
        segments: Probe-segment width for two-stage selective precharge;
            0 disables segmentation.
        sensing: ``"precharge"`` or ``"current_race"``.
        vdd: Supply override [V]; ``None`` uses the node nominal.

    A point is checked where it is used, not where it is made (making
    one stays as cheap as a tuple): :func:`run_dse` checks every point
    before it builds any, and :func:`evaluate_point` checks its own.
    """

    cell: str
    rows: int
    cols: int
    segments: int = 0
    sensing: str = "precharge"
    vdd: float | None = None

    def label(self) -> str:
        """Compact human-readable coordinate string."""
        parts = [self.cell, f"{self.rows}x{self.cols}", self.sensing]
        if self.segments:
            parts.append(f"seg{self.segments}")
        if self.vdd is not None:
            parts.append(f"{self.vdd:g}V")
        return "/".join(parts)

    def seed_key(self, seed: int) -> list[int]:
        """Deterministic per-point RNG seed material.

        Stable across processes (no ``hash()``), so sweep rows are
        identical at every worker count.
        """
        return [
            seed,
            zlib.crc32(self.cell.encode()),
            zlib.crc32(self.sensing.encode()),
            self.rows,
            self.cols,
            self.segments,
            int(round((self.vdd or 0.0) * 1000)),
        ]


def default_space(
    cells: Sequence[str] | None = None,
    rows: Sequence[int] = (32,),
    cols: Sequence[int] = (16, 32),
    segments: Sequence[int] = (0,),
    vdds: Sequence[float | None] = (None,),
) -> tuple[DesignPoint, ...]:
    """Cross-product of the axes, with the invalid combinations dropped.

    Current-race sensing is included automatically for every cell at
    the flat (unsegmented) coordinates; segmentation composes with
    precharge sensing only, and probe widths that do not leave a tail
    segment are skipped.
    """
    names = tuple(cells) if cells is not None else list_cells()
    points: list[DesignPoint] = []
    for cell in names:
        for n_rows in rows:
            for n_cols in cols:
                for vdd in vdds:
                    for seg in segments:
                        if seg < 0 or seg >= n_cols:
                            continue
                        points.append(
                            DesignPoint(
                                cell=cell,
                                rows=n_rows,
                                cols=n_cols,
                                segments=seg,
                                sensing="precharge",
                                vdd=vdd,
                            )
                        )
                        if seg == 0:
                            points.append(
                                DesignPoint(
                                    cell=cell,
                                    rows=n_rows,
                                    cols=n_cols,
                                    segments=0,
                                    sensing="current_race",
                                    vdd=vdd,
                                )
                            )
    return tuple(points)


def _validate(point: DesignPoint, api: str) -> None:
    """Reject a malformed point before anything is built from it.

    Raises:
        AnalysisError: naming ``api`` and the point, for an unregistered
            cell, an unknown sensing style, ``rows`` or ``cols`` < 1,
            ``segments`` outside ``[0, cols)``, or segmentation combined
            with current-race sensing.
    """
    where = f"{api}: {point.label()}"
    if point.cell not in list_cells():
        raise AnalysisError(
            f"{where}: unknown cell {point.cell!r}; registered: {', '.join(list_cells())}"
        )
    if point.sensing not in SENSING_STYLES:
        raise AnalysisError(
            f"{where}: sensing must be one of {SENSING_STYLES}, got {point.sensing!r}"
        )
    if point.rows < 1 or point.cols < 1:
        raise AnalysisError(f"{where}: rows and cols must be >= 1")
    if not 0 <= point.segments < point.cols:
        raise AnalysisError(
            f"{where}: segments must be in [0, {point.cols}), got {point.segments}"
        )
    if point.segments and point.sensing == "current_race":
        raise AnalysisError(f"{where}: segmentation composes with precharge sensing only")


def _build(point: DesignPoint):
    """Instantiate the array (or segmented bank) for a validated point."""
    geometry = ArrayGeometry(point.rows, point.cols)
    supply = point.vdd if point.vdd is not None else geometry.node.vdd_nominal
    cell = get_cell(point.cell, vdd=point.vdd)
    if point.sensing == "current_race":
        return cell, TCAMArray(cell, geometry, sensing="current_race", vdd=supply)
    if point.segments:
        return cell, SegmentedBank(
            cell, geometry, probe_cols=point.segments, vdd=supply
        )
    return cell, TCAMArray(cell, geometry, vdd=supply)


def evaluate_point(
    point: DesignPoint,
    searches: int = 8,
    seed: int = 0,
    x_fraction: float = 0.3,
    use_kernel: bool = False,
    *,
    tables: dict | None = None,
) -> dict:
    """Measure one design point on a common random workload.

    Returns the coordinate plus the objective metrics: energy per
    search and per stored bit, worst search delay and cycle time, total
    array area and area per stored bit, equivalent storage density,
    per-cell match accuracy and the functional error count.

    Args:
        point: The coordinate to evaluate.
        searches: Random search keys.
        seed: Workload seed (per-point stream derived from it).
        x_fraction: Don't-care density of the stored words.
        use_kernel: Answer the keys in one ``search_batch`` call (the
            path :func:`run_dse` takes); ``False`` answers them one by
            one on the per-key reference -- a flat array through
            :func:`repro.tcam.reference.search`, a segmented bank
            through its own ``search`` -- bit-identical, and the oracle
            the kernel path is checked against.
        tables: :func:`run_dse` plumbing, not a user option: the run's
            pool of kernel engines keyed by electrical signature.  A
            flat array adopts the tables of the pooled engine with its
            signature, or becomes that signature's donor.  Segmented
            banks do not take part.

    Raises:
        AnalysisError: when ``searches`` < 1 or the point is malformed.
    """
    if searches < 1:
        raise AnalysisError(f"evaluate_point: searches must be >= 1, got {searches}")
    _validate(point, "evaluate_point")
    cell, array = _build(point)
    if tables is not None and isinstance(array, TCAMArray):
        engine = array.kernel
        engine.adopt_tables(tables.setdefault(engine._electrical_signature(), engine))
    rng = np.random.default_rng(point.seed_key(seed))
    words = [
        random_word(point.cols, rng, x_fraction=x_fraction)
        for _ in range(point.rows)
    ]
    keys = [random_word(point.cols, rng) for _ in range(searches)]
    array.load(words)
    energy = 0.0
    delay = 0.0
    cycle = 0.0
    errors = 0
    if use_kernel:
        outcomes = array.search_batch(keys)
    elif isinstance(array, TCAMArray):
        outcomes = [reference.search(array, key) for key in keys]
    else:
        outcomes = [array.search(key) for key in keys]
    for out in outcomes:
        energy += out.energy.total
        delay = max(delay, out.search_delay)
        cycle = max(cycle, out.cycle_time)
        errors += getattr(out, "functional_errors", 0)
    mean_energy = energy / searches
    stored_bits = point.rows * point.cols * cell.bits_per_cell
    area_f2 = point.rows * point.cols * cell.area_f2
    # Write-path characterization: deterministic per cell (mean over
    # the nine trit transitions), so frontier membership on these axes
    # never flickers with the sampled workload.
    trits = (Trit.ZERO, Trit.ONE, Trit.X)
    write_costs = [cell.write_cost(old, new) for old in trits for new in trits]
    write_energy = sum(c.energy for c in write_costs) / len(write_costs)
    write_latency = max(c.latency for c in write_costs)
    return {
        "cell": point.cell,
        "rows": point.rows,
        "cols": point.cols,
        "segments": point.segments,
        "sensing": point.sensing,
        "vdd": point.vdd,
        "label": point.label(),
        "bits_per_cell": cell.bits_per_cell,
        "stored_bits": stored_bits,
        "energy_per_search": mean_energy,
        "energy_per_bit": mean_energy / stored_bits,
        "search_delay": delay,
        "cycle_time": cycle,
        "area_f2": area_f2,
        "area_f2_per_bit": cell.area_f2 / cell.bits_per_cell,
        "write_energy_per_bit": write_energy / cell.bits_per_cell,
        "write_latency": write_latency,
        "accuracy": cell.match_accuracy(),
        "functional_errors": errors,
    }


def dominates(
    b, a, minimize: Sequence[str] = MINIMIZE, maximize: Sequence[str] = MAXIMIZE
) -> bool:
    """Pareto dominance of mapping ``b`` over mapping ``a``.

    ``b`` dominates ``a`` when it is no worse on every objective (the
    ``minimize`` and ``maximize`` keys) and strictly better on at least
    one.
    """
    no_worse = all(b[m] <= a[m] for m in minimize) and all(b[m] >= a[m] for m in maximize)
    strictly = any(b[m] < a[m] for m in minimize) or any(b[m] > a[m] for m in maximize)
    return no_worse and strictly


def pareto_frontier(
    rows: Sequence[dict],
    minimize: Sequence[str] = MINIMIZE,
    maximize: Sequence[str] = MAXIMIZE,
) -> tuple[int, ...]:
    """Indices of the rows no other row :func:`dominates`."""
    keep = []
    for i, row in enumerate(rows):
        if not any(
            dominates(other, row, minimize, maximize)
            for j, other in enumerate(rows)
            if j != i
        ):
            keep.append(i)
    return tuple(keep)


@dataclass(frozen=True)
class DSEResult:
    """The evaluated cloud and its Pareto reduction.

    Attributes:
        points: One metrics row per evaluated design point.
        frontier_indices: Indices into ``points`` of the non-dominated,
            functionally clean rows.
    """

    points: tuple[dict, ...]
    frontier_indices: tuple[int, ...]

    @property
    def frontier(self) -> tuple[dict, ...]:
        """The non-dominated rows."""
        return tuple(self.points[i] for i in self.frontier_indices)

    def frontier_cells(self) -> tuple[str, ...]:
        """Distinct cell technologies on the frontier, in point order."""
        seen: dict[str, None] = {}
        for row in self.frontier:
            seen.setdefault(row["cell"], None)
        return tuple(seen)

    def to_dict(self) -> dict:
        return {
            "objectives": {
                "minimize": list(MINIMIZE),
                "maximize": list(MAXIMIZE),
            },
            "n_points": len(self.points),
            "frontier_size": len(self.frontier_indices),
            "frontier_cells": list(self.frontier_cells()),
            "frontier": [dict(row) for row in self.frontier],
            "points": [dict(row) for row in self.points],
        }


def _payloads(points: Sequence[DesignPoint], workers: int) -> list[list[int]]:
    """Point indices per worker payload; each payload gets one table pool.

    Flat points with equal ``(cell, cols, sensing, vdd)`` build arrays
    with equal electrical signatures (row count is not part of one), so
    they share a payload; a segmented point stands alone.  The key only
    decides where tables get compiled: each payload's pool is keyed by
    the real signature.  A group larger than an even share of the space
    (``ceil(len(points) / workers)`` points) is split into pieces of
    that size, so a sweep over row counts still keeps every worker busy;
    each piece compiles its own tables.
    """
    groups: dict[object, list[int]] = {}
    for i, p in enumerate(points):
        key = i if p.segments else (p.cell, p.cols, p.sensing, p.vdd)
        groups.setdefault(key, []).append(i)
    share = -(-len(points) // resolve_workers(workers))
    return [g[lo : lo + share] for g in groups.values() for lo in range(0, len(g), share)]


def _evaluate_group(payload: tuple) -> list[dict]:
    """Evaluate a payload's points against one fresh table pool (pure worker fn).

    The pool dies with the payload, so its donor arrays do not outlive it.

    A failure names its point: with payloads running out of order across
    processes, progress output no longer tells which point broke.
    """
    evaluate, points = payload
    tables: dict = {}
    rows = []
    for point in points:
        try:
            rows.append(evaluate(point, tables=tables))
        except Exception as exc:
            raise AnalysisError(
                f"run_dse: evaluation failed at {point.label()}: {exc}"
            ) from exc
    return rows


def run_dse(
    points: Sequence[DesignPoint],
    searches: int = 8,
    seed: int = 0,
    workers: int = 0,
) -> DSEResult:
    """Evaluate a design space and reduce it to the Pareto frontier.

    Every point answers its keys in one ``search_batch`` call
    (bit-identical to :func:`evaluate_point`'s per-key default).  Flat
    arrays with one electrical signature compile their kernel tables
    once per payload and share them; a payload holds every point of one
    signature unless that is more than an even share of the space at
    ``workers`` processes (see :func:`_payloads`).

    Args:
        points: The coordinates to evaluate (see :func:`default_space`).
        searches: Random search keys per point.
        seed: Workload seed; each point derives its own stream from it.
        workers: Process count for the point fan-out (serial by default;
            rows are identical at every worker count).

    Raises:
        AnalysisError: on an empty space, ``searches`` < 1 or a
            malformed point, before any point is built.
    """
    points = list(points)
    if not points:
        raise AnalysisError("the design space is empty")
    if searches < 1:
        raise AnalysisError(f"run_dse: searches must be >= 1, got {searches}")
    for point in points:
        _validate(point, "run_dse")
    evaluate = partial(evaluate_point, searches=searches, seed=seed, use_kernel=True)
    payloads = _payloads(points, workers)
    per_payload = scatter_gather(
        _evaluate_group,
        [(evaluate, [points[i] for i in idx]) for idx in payloads],
        workers=workers,
        span_prefix="dse",
    )
    placed: dict[int, dict] = {}
    for idx, payload_rows in zip(payloads, per_payload):
        placed.update(zip(idx, payload_rows))
    rows = tuple(placed[i] for i in range(len(points)))
    functional = [i for i, row in enumerate(rows) if row["functional_errors"] == 0]
    frontier_of_functional = pareto_frontier([rows[i] for i in functional])
    return DSEResult(
        points=rows,
        frontier_indices=tuple(functional[i] for i in frontier_of_functional),
    )
