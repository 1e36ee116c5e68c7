"""Compiled-kernel benchmark: table validation, table build, speedup.

Exercises the three contracts of :mod:`repro.kernels` and records the
numbers to ``BENCH_kernels.json`` at the repo root:

* **Validation** -- for every searchable design, the tabulated discharge
  endpoints must agree with the scalar RK4 reference to ``<= 1e-9``
  relative error (:meth:`KernelEngine.validate` re-integrates every
  tabulated class); for every registered cell, the full class triangle
  must agree exactly (error 0.0).
* **Table build** -- cold build time of a batch's table rows on a
  128x64 fefet2t array: one stacked :meth:`KernelEngine.rows` pass
  against a per-row :meth:`KernelEngine.row` loop (rows asserted
  bitwise equal).
* **Faulted arrays** -- on a 64x32 array carrying every fault kind
  (stuck-match, stuck-miss, stuck-trit, retention, dead rows, SA
  offsets), the fault-aware kernel batch must equal the per-key
  reference faulty search outcome for outcome, for both sensing styles,
  with the tables serving it.
* **Timing** -- warm-table kernel batch throughput on the
  ``bench_perf_search`` configuration, outcomes checked against the
  per-key reference on a key prefix.
* **Assembly** -- warm ``search_batch`` on a 128x64 fefet2t array with
  every table row prebuilt, so the time is the batch's outcome assembly
  (mismatch matmul, dense per-class sums, ledgers); every outcome,
  ledger booking order included, checked against the per-key reference.
* **Write** -- microseconds per ``TCAMArray.write`` of a 64-column row
  for every registered cell: the per-cell ``write_cost`` loop the array
  used to run against the tabled path (one gather over the estimator's
  3x3 ``(old, new)`` table); every write's ledger, latency, changed-cell
  count and the final content and wear checked equal.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_kernels.py --check    # assert

``--check`` asserts the validation bounds (exactly 0.0 for every
registered cell), scalar/kernel bit-identity, and zero mismatching
faulted outcomes with the tables serving them, an assembly batch identical to the scalar search key
for key, and tabled writes identical to the per-cell loop; these hold
on any host.  The timing sections are
informational on shared runners and carry no floor (the
kernel-vs-scalar CI gate lives in ``bench_perf_search``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.core import all_designs, build_array, get_design
from repro.energy.accounting import EnergyComponent, EnergyLedger
from repro.faults.faultmap import FaultKind, FaultMap
from repro.kernels.engine import VALIDATION_RTOL
from repro.tcam import ArrayGeometry, TCAMArray, reference
from repro.tcam.cells import get_cell, list_cells
from repro.tcam.array import WriteOutcome
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import Trit, random_word

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "fefet2t"  # precharge-style sensing, same as bench_perf_search
FAULT_DESIGNS = ("fefet2t", "fefet_cr")  # one design per sensing style
SEED = 616161


def _build_loaded(design: str, rows: int, cols: int, seed: int):
    array = build_array(get_design(design), ArrayGeometry(rows=rows, cols=cols))
    rng = np.random.default_rng(seed)
    for row in range(rows):
        array.write(row, random_word(cols, rng, x_fraction=0.2))
    return array


def _keys(cols: int, n_keys: int, x_fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction=x_fraction) for _ in range(n_keys)]


def _same(a, b) -> bool:
    """Every outcome field equal, ledger items in booking order included."""
    return (
        np.array_equal(a.match_mask, b.match_mask)
        and a.first_match == b.first_match
        and a.search_delay == b.search_delay
        and a.cycle_time == b.cycle_time
        and a.miss_histogram == b.miss_histogram
        and a.functional_errors == b.functional_errors
        and list(a.energy) == list(b.energy)
    )


def _assert_identical(scalar, kernel, label: str) -> None:
    for a, b in zip(scalar, kernel):
        assert np.array_equal(a.match_mask, b.match_mask), label
        assert a.first_match == b.first_match, label
        assert a.search_delay == b.search_delay, label
        assert a.cycle_time == b.cycle_time, label
        assert a.miss_histogram == b.miss_histogram, label
        assert a.energy.as_dict() == b.energy.as_dict(), (
            f"{label}: kernel ledger diverged from the scalar search"
        )


def run_validation(designs: list[str], rows: int, cols: int, n_keys: int) -> list[dict]:
    """Table-vs-RK4 validation per design; asserts the 1e-9 budget."""
    records = []
    for design in designs:
        array = _build_loaded(design, rows, cols, SEED)
        engine = array.kernel
        keys = _keys(cols, n_keys, x_fraction=0.3, seed=SEED + 1)
        array.search_batch(keys)  # builds the rows this workload touches
        worst = engine.validate()  # raises KernelError over budget
        assert worst <= VALIDATION_RTOL, f"{design}: validation error {worst} over budget"
        records.append(
            {
                "design": design,
                "sensing": array.sensing,
                "rows_built": engine.rows_built,
                "classes_tabulated": engine.counters()["classes_tabulated"],
                "worst_relative_error": worst,
            }
        )
    return records


def run_cell_validation(cells: list[str], cols: int) -> list[dict]:
    """Full-triangle table-vs-RK4 validation per registered cell."""
    records = []
    for name in cells:
        engine = TCAMArray(get_cell(name), ArrayGeometry(rows=4, cols=cols)).kernel
        engine.precompute()
        records.append(
            {
                "cell": name,
                "cols": cols,
                "classes_tabulated": engine.counters()["classes_tabulated"],
                "worst_relative_error": engine.validate(),
            }
        )
    return records


def run_table_build(rows: int, cols: int, n_keys: int) -> dict:
    """Cold build of one batch's rows: one stacked pass vs a per-row loop."""
    keys = _keys(cols, n_keys, x_fraction=0.2, seed=SEED + 6)
    drivens = sorted({int(np.count_nonzero(k.as_array() != 2)) for k in keys})
    seconds = {}
    built = {}
    # Stacked first, so one-time warm-up costs land on it, not on the loop.
    for mode in ("stacked", "per_row"):
        engine = _build_loaded(DESIGN, rows, cols, SEED).kernel
        t0 = time.perf_counter()
        if mode == "stacked":
            built[mode] = engine.rows(drivens)
        else:
            built[mode] = [engine.row(d) for d in drivens]
        seconds[mode] = round(time.perf_counter() - t0, 4)
    for a, b in zip(built["stacked"], built["per_row"]):
        for name, field in vars(a).items():
            assert np.array_equal(field, getattr(b, name)), "stacked row != per-row build"
    return {
        "design": DESIGN,
        "rows": rows,
        "cols": cols,
        "n_rows": len(drivens),
        "n_classes": sum(d + 1 for d in drivens),
        "per_row_seconds": seconds["per_row"],
        "stacked_seconds": seconds["stacked"],
        "speedup": round(seconds["per_row"] / seconds["stacked"], 2),
    }


def _every_fault_kind(rows: int, cols: int, seed: int) -> FaultMap:
    """A map with every cell kind on ~5% of cells plus row-level faults."""
    rng = np.random.default_rng(seed)
    fm = FaultMap(rows, cols)
    cells = rng.choice(rows * cols, size=rows * cols // 20, replace=False)
    for i, cell in enumerate(cells):
        kind = (FaultKind.STUCK_MATCH, FaultKind.STUCK_MISS, FaultKind.STUCK_TRIT,
                FaultKind.RETENTION)[i % 4]
        value = float(rng.uniform(0.05, 0.4)) if kind is FaultKind.RETENTION else i % 3
        fm.set_cell(int(cell) // cols, int(cell) % cols, kind, value)
    for row in rng.choice(rows, size=max(rows // 16, 1), replace=False):
        fm.set_dead_row(int(row))
    for row in rng.choice(rows, size=max(rows // 8, 1), replace=False):
        fm.set_sa_offset(int(row), float(rng.choice([-0.2, 0.05, 0.3])))
    return fm


def run_faulted(rows: int, cols: int, n_keys: int) -> list[dict]:
    """Fault-aware kernel batch vs the scalar faulty loop, per sensing style.

    Two passes over the same keys; the mismatch count covers both.
    """
    records = []
    for design in FAULT_DESIGNS:
        ref_array = _build_loaded(design, rows, cols, SEED)
        kernel_array = _build_loaded(design, rows, cols, SEED)
        fm = _every_fault_kind(rows, cols, SEED + 4)
        ref_array.attach_faults(fm.copy())
        kernel_array.attach_faults(fm)
        engine = kernel_array.kernel
        # Half the keys are stored words, so faults can flip real matches.
        keys = _keys(cols, n_keys - n_keys // 2, x_fraction=0.2, seed=SEED + 5)
        keys += [ref_array.word_at((3 * i) % rows) for i in range(n_keys // 2)]

        # The first pass builds tables and integrates fault classes on
        # both sides; the second pass is warm.
        seconds, mismatches = [], 0
        for _ in range(2):
            t0 = time.perf_counter()
            expected = [reference.search(ref_array, k) for k in keys]
            t_loop = time.perf_counter() - t0
            t0 = time.perf_counter()
            got = kernel_array.search_batch(keys)
            seconds.append((round(t_loop, 4), round(time.perf_counter() - t0, 4)))
            mismatches += sum(not _same(a, b) for a, b in zip(expected, got))
        records.append(
            {
                "design": design,
                "sensing": kernel_array.sensing,
                "rows": rows,
                "cols": cols,
                "n_keys": n_keys,
                "faults": fm.summary(),
                "functional_errors": sum(o.functional_errors for o in expected),
                "mismatching_outcomes": mismatches,
                "table_hits": engine.table_hits,
                "faulty_loop_seconds": {"cold": seconds[0][0], "warm": seconds[1][0]},
                "fault_kernel_seconds": {"cold": seconds[0][1], "warm": seconds[1][1]},
            }
        )
    return records


def run_timing(rows: int, cols: int, n_keys: int, scalar_keys: int) -> dict:
    """Warm compiled-kernel batch, bit-identity to the scalar search
    asserted on the first ``scalar_keys`` keys."""
    scalar_array = _build_loaded(DESIGN, rows, cols, SEED)
    kernel_array = _build_loaded(DESIGN, rows, cols, SEED)
    keys = _keys(cols, n_keys, x_fraction=0.2, seed=SEED + 3)
    engine = kernel_array.kernel
    engine.precompute(sorted({int(np.count_nonzero(k.as_array() != 2)) for k in keys}))

    t0 = time.perf_counter()
    kernel = kernel_array.search_batch(keys)
    t_kernel = time.perf_counter() - t0

    scalar = [reference.search(scalar_array, k) for k in keys[:scalar_keys]]
    _assert_identical(scalar, kernel, "timing batch")
    return {
        "rows": rows,
        "cols": cols,
        "n_keys": n_keys,
        "kernel_seconds": round(t_kernel, 4),
        "keys_per_sec": round(n_keys / t_kernel, 2),
    }


def run_assembly(rows: int, cols: int, n_keys: int) -> dict:
    """Warm batch with every table row prebuilt, checked key for key
    (ledger booking order included) against the scalar search."""
    scalar_array = _build_loaded(DESIGN, rows, cols, SEED)
    kernel_array = _build_loaded(DESIGN, rows, cols, SEED)
    keys = _keys(cols, n_keys, x_fraction=0.2, seed=SEED + 7)
    engine = kernel_array.kernel
    engine.precompute(sorted({int(np.count_nonzero(k.as_array() != 2)) for k in keys}))
    # One-key warm-up builds the content snapshot; the scalar side
    # searches the same key so both start from the same search-line drive.
    kernel_array.search_batch(keys[-1:])
    reference.search(scalar_array, keys[-1])
    built = engine.rows_built

    t0 = time.perf_counter()
    kernel = kernel_array.search_batch(keys)
    t_kernel = time.perf_counter() - t0

    scalar = [reference.search(scalar_array, k) for k in keys]
    assert engine.rows_built == built, "assembly batch built table rows"
    return {
        "design": DESIGN,
        "rows": rows,
        "cols": cols,
        "n_keys": n_keys,
        "warm_seconds": round(t_kernel, 4),
        "keys_per_sec": round(n_keys / t_kernel, 2),
        "checked_keys": len(scalar),
        "mismatching_outcomes": sum(not _same(a, b) for a, b in zip(scalar, kernel)),
    }


def _per_cell_write(array: TCAMArray, row: int, word) -> WriteOutcome:
    """The per-cell write loop the tabled path replaced: one
    ``estimator.write_cost`` call and one ``ledger.add`` per cell."""
    ledger = EnergyLedger()
    latency = 0.0
    changed = 0
    new = word.as_array()
    for col in range(array.cols):
        old_trit = Trit(int(array._stored[row, col]))
        new_trit = Trit(int(new[col]))
        cost = array.estimator.write_cost(old_trit, new_trit)
        ledger.add(EnergyComponent.WRITE, cost.energy)
        latency = max(latency, cost.latency)
        if old_trit is not new_trit:
            changed += 1
            array._write_counts[row, col] += 1
    array._stored[row] = new
    array._valid[row] = True
    array._content_version += 1
    return WriteOutcome(row=row, energy=ledger, latency=latency, cells_changed=changed)


def run_write(cells: list[str], rows: int, cols: int, n_writes: int) -> list[dict]:
    """Per-cell loop vs tabled ``write`` per registered cell, checked
    write for write."""
    records = []
    for name in cells:
        geo = ArrayGeometry(rows=rows, cols=cols)
        reference, tabled = TCAMArray(get_cell(name), geo), TCAMArray(get_cell(name), geo)
        tabled.estimator.write_table()  # the one-time table build stays out of the timing
        rng = np.random.default_rng(SEED + 8)
        writes = [(i % rows, random_word(cols, rng, x_fraction=0.3)) for i in range(n_writes)]
        t0 = time.perf_counter()
        expected = [_per_cell_write(reference, row, word) for row, word in writes]
        t_loop = time.perf_counter() - t0
        t0 = time.perf_counter()
        got = [tabled.write(row, word) for row, word in writes]
        t_tabled = time.perf_counter() - t0
        mismatches = sum(
            (list(a.energy), a.latency, a.cells_changed)
            != (list(b.energy), b.latency, b.cells_changed)
            for a, b in zip(expected, got)
        )
        same_state = np.array_equal(
            reference.stored_matrix(), tabled.stored_matrix()
        ) and np.array_equal(reference.wear_counts(), tabled.wear_counts())
        records.append(
            {
                "cell": name,
                "cols": cols,
                "n_writes": n_writes,
                "per_cell_us": round(t_loop / n_writes * 1e6, 2),
                "tabled_us": round(t_tabled / n_writes * 1e6, 2),
                "speedup": round(t_loop / t_tabled, 2),
                "mismatching_writes": mismatches + (not same_state),
            }
        )
    return records


def run_bench(smoke: bool) -> dict:
    searchable = [spec.name for spec in all_designs() if spec.sensing != "nand"]
    cells = list(list_cells())
    if smoke:
        validation = run_validation([DESIGN], rows=32, cols=24, n_keys=32)
        cell_validation = run_cell_validation(cells, cols=8)
        table_build = run_table_build(rows=32, cols=24, n_keys=64)
        faulted = run_faulted(rows=64, cols=32, n_keys=64)
        timing = run_timing(rows=64, cols=32, n_keys=128, scalar_keys=16)
        assembly = run_assembly(rows=32, cols=24, n_keys=128)
        write = run_write(cells, rows=16, cols=64, n_writes=64)
    else:
        validation = run_validation(searchable, rows=64, cols=32, n_keys=64)
        cell_validation = run_cell_validation(cells, cols=16)
        table_build = run_table_build(rows=128, cols=64, n_keys=256)
        faulted = run_faulted(rows=64, cols=32, n_keys=256)
        timing = run_timing(rows=256, cols=64, n_keys=1024, scalar_keys=64)
        assembly = run_assembly(rows=128, cols=64, n_keys=4096)
        write = run_write(cells, rows=64, cols=64, n_writes=2048)
    return {
        "schema_version": SCHEMA_VERSION,
        "design": DESIGN,
        "validation_rtol": VALIDATION_RTOL,
        "validation": validation,
        "cell_validation": cell_validation,
        "table_build": table_build,
        "faulted": faulted,
        "timing": timing,
        "assembly": assembly,
        "write": write,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (no BENCH_kernels.json update)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit non-zero unless the validation bounds hold (0.0 for "
            "every registered cell), kernel outcomes are "
            "bit-identical to the scalar search, faulted kernel "
            "batches equal the scalar faulty loop from the tables alone, "
            "the warm assembly batch equals the scalar search, and "
            "tabled writes equal the per-cell write loop"
        ),
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_kernels.json",
        help="where to write the JSON record (full runs only)",
    )
    args = parser.parse_args()

    record = run_bench(smoke=args.smoke)
    print(json.dumps(record, indent=2))
    if not args.smoke:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        worst = max(v["worst_relative_error"] for v in record["validation"])
        assert worst <= VALIDATION_RTOL
        for v in record["cell_validation"]:
            assert v["worst_relative_error"] == 0.0, (
                f"cell {v['cell']}: table diverged from the scalar RK4 reference"
            )
        for faulted in record["faulted"]:
            label = f"faulted {faulted['design']}"
            assert faulted["mismatching_outcomes"] == 0, f"{label}: outcomes diverged"
            assert faulted["table_hits"] > 0, f"{label}: tables not used"
        assembly = record["assembly"]
        assert assembly["checked_keys"] == assembly["n_keys"]
        assert assembly["mismatching_outcomes"] == 0, "assembly batch diverged from scalar"
        for w in record["write"]:
            assert w["mismatching_writes"] == 0, (
                f"cell {w['cell']}: tabled write diverged from the per-cell loop"
            )
        print(
            f"OK: validation <= 1e-9 (worst {worst:.3e}), every registered "
            "cell's full triangle exact, kernel bit-identical to scalar, "
            "faulted kernel batches identical to the scalar faulty loop, "
            "assembly batch identical to the scalar search, tabled writes "
            "identical to the per-cell loop"
        )


if __name__ == "__main__":
    main()
