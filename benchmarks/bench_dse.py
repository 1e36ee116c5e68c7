"""Design-space explorer: energy-delay-area-accuracy Pareto frontier.

Crosses every registered cell technology (including the multi-bit
``seemcam`` and analog ``fecam`` cells) with geometry, segmentation,
sensing style and supply voltage, evaluates each point on a common
random workload through the parallel sweep engine, and records the
cloud plus its four-objective Pareto frontier to ``BENCH_dse.json``:
minimize energy per stored bit, search delay and area per stored bit,
maximize per-cell match accuracy.  All numbers are modeled and the
workload streams are derived per point, so the record is
bit-reproducible on any host at any worker count.

The gates ``--check`` asserts:

* **Sanity** -- every point has positive energy, delay and area, an
  accuracy in (0, 1], and a non-negative error count.
* **Frontier hygiene** -- frontier rows are drawn from the cloud, are
  mutually non-dominated and carry zero functional errors.
* **Coverage** -- the frontier spans at least 5 cell technologies and
  includes the multi-bit (``seemcam``) and analog (``fecam``) cells:
  density-for-accuracy trades survive the reduction instead of being
  ranked away.
* **Worker-count equivalence** -- with ``--workers N`` > 1 the space is
  run serially as well, and the points and frontier must be equal: the
  grouped worker payloads change where tables are compiled, never the
  rows.

Run directly::

    PYTHONPATH=src python benchmarks/bench_dse.py            # full
    PYTHONPATH=src python benchmarks/bench_dse.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_dse.py --check    # assert
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.analysis.dse import MAXIMIZE, MINIMIZE, default_space, pareto_frontier, run_dse
from repro.tcam.cells import list_cells
from repro.tcam.outcome import SCHEMA_VERSION

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 20260807
SEARCHES = 8
SEARCHES_SMOKE = 4

#: Full campaign axes.  fecam's analog window stops resolving exact
#: matches past ~32 driven columns, which the error accounting (and the
#: frontier's zero-error rule) surfaces rather than hides.
ROWS = (32,)
COLS = (16, 32)
SEGMENTS = (0, 4)
VDDS = (0.7, 0.9, 1.1)

#: Two row counts, so that points share an electrical signature and the
#: worker-count gate sees multi-point payloads.
ROWS_SMOKE = (8, 16)
COLS_SMOKE = (16,)
SEGMENTS_SMOKE = (0,)
VDDS_SMOKE = (0.7, 0.9)

#: Coverage gate: distinct cells the frontier must span, and the two
#: new-cell backends that must be among them.
MIN_FRONTIER_CELLS = 5
REQUIRED_CELLS = ("seemcam", "fecam")


def run_bench(smoke: bool, workers: int = 0) -> dict:
    space = default_space(
        rows=ROWS_SMOKE if smoke else ROWS,
        cols=COLS_SMOKE if smoke else COLS,
        segments=SEGMENTS_SMOKE if smoke else SEGMENTS,
        vdds=VDDS_SMOKE if smoke else VDDS,
    )
    searches = SEARCHES_SMOKE if smoke else SEARCHES
    result = run_dse(space, searches=searches, seed=SEED, workers=workers)
    summary = {
        "n_points": len(result.points),
        "frontier_size": len(result.frontier_indices),
        "frontier_cells": list(result.frontier_cells()),
        "cells_registered": list(list_cells()),
        "points_with_errors": sum(
            1 for p in result.points if p["functional_errors"]
        ),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": SEED,
        "searches": searches,
        "space": {
            "rows": list(ROWS_SMOKE if smoke else ROWS),
            "cols": list(COLS_SMOKE if smoke else COLS),
            "segments": list(SEGMENTS_SMOKE if smoke else SEGMENTS),
            "vdds": list(VDDS_SMOKE if smoke else VDDS),
        },
        "objectives": {"minimize": list(MINIMIZE), "maximize": list(MAXIMIZE)},
        "summary": summary,
        "frontier": [dict(row) for row in result.frontier],
        "points": [dict(row) for row in result.points],
    }


def check(record: dict) -> None:
    """Assert the frontier gates (used by CI and ``--check``)."""
    assert record["schema_version"] == SCHEMA_VERSION
    for p in record["points"]:
        label = p["label"]
        assert p["energy_per_search"] > 0.0, f"non-positive energy at {label}"
        assert p["energy_per_bit"] > 0.0, f"non-positive energy/bit at {label}"
        assert p["search_delay"] > 0.0, f"non-positive delay at {label}"
        assert p["area_f2"] > 0.0, f"non-positive area at {label}"
        assert 0.0 < p["accuracy"] <= 1.0, f"accuracy out of (0, 1] at {label}"
        assert p["functional_errors"] >= 0, f"negative error count at {label}"

    frontier = record["frontier"]
    assert frontier, "empty Pareto frontier"
    point_labels = {p["label"] for p in record["points"]}
    for row in frontier:
        assert row["label"] in point_labels, (
            f"frontier row {row['label']} is not in the evaluated cloud"
        )
        assert row["functional_errors"] == 0, (
            f"frontier row {row['label']} has functional errors"
        )
    assert pareto_frontier(frontier) == tuple(range(len(frontier))), (
        "frontier rows are not mutually non-dominated"
    )

    cells = set(record["summary"]["frontier_cells"])
    assert len(cells) >= MIN_FRONTIER_CELLS, (
        f"frontier spans {len(cells)} cells ({sorted(cells)}); "
        f"need >= {MIN_FRONTIER_CELLS}"
    )
    for name in REQUIRED_CELLS:
        assert name in cells, f"frontier is missing the {name!r} cell"
    print(
        f"OK: {record['summary']['frontier_size']} of "
        f"{record['summary']['n_points']} points on the frontier, "
        f"spanning {len(cells)} cells incl. "
        f"{' and '.join(REQUIRED_CELLS)}"
    )


def check_matches_serial(record: dict, serial: dict, workers: int) -> None:
    """Assert a parallel record's rows equal the serial run's."""
    assert record["points"] == serial["points"], (
        f"points differ between workers={workers} and a serial run"
    )
    assert record["frontier"] == serial["frontier"], (
        f"frontier differs between workers={workers} and a serial run"
    )
    print(f"OK: points and frontier at workers={workers} equal the serial run")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (no BENCH_dse.json update)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the frontier gates hold "
             "(sanity, frontier hygiene, >= 5-cell coverage incl. "
             "seemcam and fecam; with --workers > 1 also equality with a "
             "serial run)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="process count for the design-point sweep (default: serial)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_dse.json",
        help="where to write the JSON record (full runs only)",
    )
    args = parser.parse_args()

    record = run_bench(smoke=args.smoke, workers=args.workers)
    print(json.dumps(record["summary"], indent=2))
    if not args.smoke:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        check(record)
        if args.workers > 1:
            check_matches_serial(record, run_bench(smoke=args.smoke), args.workers)


if __name__ == "__main__":
    main()
