"""Compiled-kernel benchmark: table validation, fallback path, speedup.

Exercises the three contracts of :mod:`repro.kernels` and records the
numbers to ``BENCH_kernels.json`` at the repo root:

* **Validation** -- for every searchable design, the tabulated discharge
  endpoints must agree with the scalar RK4 reference to ``<= 1e-9``
  relative error (:meth:`KernelEngine.validate` re-integrates every
  tabulated class).
* **Fallback** -- a kernel compiled with a deliberately small
  ``max_driven`` must serve in-grid keys from the tables and route the
  rest through the RK4 reference path, with outcomes bit-identical to
  the legacy batch engine either way.
* **Faulted arrays** -- on a 64x32 array carrying every fault kind
  (stuck-match, stuck-miss, stuck-trit, retention, dead rows, SA
  offsets), the fault-aware kernel batch must equal the per-key scalar
  faulty search outcome for outcome, for both sensing styles, with the
  tables serving it and no RK4 fallback.
* **Speedup** -- with warm tables, the kernel batch must beat the legacy
  batch engine on the ``bench_perf_search`` configuration.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_kernels.py --check    # assert

``--check`` asserts the validation bound, that both the table-hit and
RK4-fallback paths actually ran, legacy/kernel bit-identity, and zero
mismatching faulted outcomes; these hold on any host.  The timing section is informational on shared
runners (the kernel-vs-*scalar* CI gate lives in ``bench_perf_search
--kernel``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.core import all_designs, build_array, get_design
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import random_word

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


def _assert_identical(legacy, kernel, label: str) -> None:
    for a, b in zip(legacy, kernel):
        assert np.array_equal(a.match_mask, b.match_mask), label
        assert a.first_match == b.first_match, label
        assert a.search_delay == b.search_delay, label
        assert a.cycle_time == b.cycle_time, label
        assert a.miss_histogram == b.miss_histogram, label
        assert a.energy.as_dict() == b.energy.as_dict(), (
            f"{label}: kernel ledger diverged from legacy"
        )


def run_validation(designs: list[str], rows: int, cols: int, n_keys: int) -> list[dict]:
    """Table-vs-RK4 validation per design; asserts the 1e-9 budget."""
    records = []
    for design in designs:
        array = _build_loaded(design, rows, cols, SEED)
        engine = array.enable_kernel()
        keys = _keys(cols, n_keys, x_fraction=0.3, seed=SEED + 1)
        array.search_batch(keys)  # builds the rows this workload touches
        worst = engine.validate(rtol=1e-9)  # raises KernelError over budget
        assert worst <= 1e-9, f"{design}: validation error {worst} over budget"
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


def run_fallback(rows: int, cols: int, n_keys: int) -> dict:
    """Mixed table/RK4 batch: both paths must run and stay bit-identical."""
    legacy_array = _build_loaded(DESIGN, rows, cols, SEED)
    kernel_array = _build_loaded(DESIGN, rows, cols, SEED)
    # Keys carry ~30% X columns, so driven_cols spreads around 0.7*cols;
    # capping the grid near the middle of that spread forces a mix.
    keys = _keys(cols, n_keys, x_fraction=0.3, seed=SEED + 2)
    drivens = [int(np.count_nonzero(k.as_array() != 2)) for k in keys]
    engine = kernel_array.enable_kernel(max_driven=int(np.median(drivens)))

    legacy = legacy_array.search_batch(keys)
    kernel = kernel_array.search_batch(keys)
    _assert_identical(legacy, kernel, "fallback batch")
    assert engine.table_hits > 0, "no key was served from the tables"
    assert engine.rk4_fallbacks > 0, "no key exercised the RK4 fallback"
    return {
        "max_driven": engine.max_driven,
        "table_hits": engine.table_hits,
        "rk4_fallbacks": engine.rk4_fallbacks,
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
        reference = _build_loaded(design, rows, cols, SEED)
        kernel_array = _build_loaded(design, rows, cols, SEED)
        fm = _every_fault_kind(rows, cols, SEED + 4)
        reference.attach_faults(fm.copy())
        kernel_array.attach_faults(fm)
        engine = kernel_array.enable_kernel()
        # Half the keys are stored words, so faults can flip real matches.
        keys = _keys(cols, n_keys - n_keys // 2, x_fraction=0.2, seed=SEED + 5)
        keys += [reference.word_at((3 * i) % rows) for i in range(n_keys // 2)]

        # The first pass builds tables and integrates fault classes on
        # both sides; the second pass is warm.
        seconds, mismatches = [], 0
        for _ in range(2):
            t0 = time.perf_counter()
            expected = [reference.search(k) for k in keys]
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
                "rk4_fallbacks": engine.rk4_fallbacks,
                "faulty_loop_seconds": {"cold": seconds[0][0], "warm": seconds[1][0]},
                "fault_kernel_seconds": {"cold": seconds[0][1], "warm": seconds[1][1]},
            }
        )
    return records


def run_timing(rows: int, cols: int, n_keys: int) -> dict:
    """Legacy batch engine vs warm compiled kernel, bit-identity asserted."""
    legacy_array = _build_loaded(DESIGN, rows, cols, SEED)
    kernel_array = _build_loaded(DESIGN, rows, cols, SEED)
    keys = _keys(cols, n_keys, x_fraction=0.2, seed=SEED + 3)
    engine = kernel_array.enable_kernel()
    engine.precompute(sorted({int(np.count_nonzero(k.as_array() != 2)) for k in keys}))

    t0 = time.perf_counter()
    legacy = legacy_array.search_batch(keys)
    t_legacy = time.perf_counter() - t0

    t0 = time.perf_counter()
    kernel = kernel_array.search_batch(keys)
    t_kernel = time.perf_counter() - t0

    _assert_identical(legacy, kernel, "timing batch")
    return {
        "rows": rows,
        "cols": cols,
        "n_keys": n_keys,
        "legacy_batch_seconds": round(t_legacy, 4),
        "kernel_seconds": round(t_kernel, 4),
        "speedup_vs_legacy_batch": round(t_legacy / t_kernel, 2),
        "keys_per_sec": round(n_keys / t_kernel, 2),
    }


def run_bench(smoke: bool) -> dict:
    searchable = [spec.name for spec in all_designs() if spec.sensing != "nand"]
    if smoke:
        validation = run_validation([DESIGN], rows=32, cols=24, n_keys=32)
        fallback = run_fallback(rows=32, cols=24, n_keys=32)
        faulted = run_faulted(rows=64, cols=32, n_keys=64)
        timing = run_timing(rows=64, cols=32, n_keys=128)
    else:
        validation = run_validation(searchable, rows=64, cols=32, n_keys=64)
        fallback = run_fallback(rows=64, cols=32, n_keys=64)
        faulted = run_faulted(rows=64, cols=32, n_keys=256)
        timing = run_timing(rows=256, cols=64, n_keys=1024)
    return {
        "schema_version": SCHEMA_VERSION,
        "design": DESIGN,
        "validation_rtol": 1e-9,
        "validation": validation,
        "fallback": fallback,
        "faulted": faulted,
        "timing": timing,
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
            "exit non-zero unless the validation bound holds, both the "
            "table and RK4-fallback paths ran, kernel outcomes are "
            "bit-identical to the legacy engine, and faulted kernel "
            "batches equal the scalar faulty loop from the tables alone"
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
        assert worst <= 1e-9
        assert record["fallback"]["table_hits"] > 0
        assert record["fallback"]["rk4_fallbacks"] > 0
        for faulted in record["faulted"]:
            label = f"faulted {faulted['design']}"
            assert faulted["mismatching_outcomes"] == 0, f"{label}: outcomes diverged"
            assert faulted["table_hits"] > 0, f"{label}: tables not used"
            assert faulted["rk4_fallbacks"] == 0, f"{label}: RK4 fallback ran"
        print(
            f"OK: validation <= 1e-9 (worst {worst:.3e}), table and "
            "fallback paths exercised, kernel bit-identical to legacy, "
            "faulted kernel batches identical to the scalar faulty loop"
        )


if __name__ == "__main__":
    main()
