"""Corpus-scale retrieval benchmark: recall / energy / latency frontier.

Builds a clustered binary-signature corpus (100k+ entries in the full
run), shards it across TCAM banks, and sweeps the Hamming tolerance of
``threshold_match_batch`` to chart recall@k against energy-per-query
and latency, with the exhaustive exact-match scan as the energy
baseline and the merged per-shard top-k as the quality reference
(recall 1.0 by construction, asserted against the numpy oracle).

Records the host wall time of building the index (corpus validation,
bulk load into the banks, kernel table compile) under ``host_time``:
simulator time, not a modelled figure.

Also times ``nearest_match_batch`` (the distance kernel) against the
per-key reference loop (:func:`repro.tcam.reference.nearest_match`, the
body the public scalar ``nearest_match`` ran before scalar calls became
one-key batches) at the standing perf-target
configuration (256x64 array, 1024 keys, the same shape
``bench_perf_search.py`` gates on) and asserts outcome identity, so the
distance kernel has its own regression gate.

Run directly::

    PYTHONPATH=src python benchmarks/bench_retrieval.py            # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_retrieval.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_retrieval.py --check    # enforce gates

``--check`` enforces two gates: kernel-vs-scalar speedup >=
``--min-speedup`` on ``nearest_match_batch``, and (full runs) a swept
tolerance reaching recall@k >= 0.9 with energy-per-query below the
exhaustive exact-search baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

import numpy as np

from repro.core import build_array, get_design
from repro.tcam import ArrayGeometry, reference
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import random_word
from repro.workloads.retrieval import (
    CorpusConfig,
    RetrievalIndex,
    run_retrieval,
    synthetic_corpus,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "fefet2t"
SEED = 424242

# The standing perf-target shape (matches bench_perf_search.py).
GATE_ROWS, GATE_COLS, GATE_KEYS = 256, 64, 1024


def _build_loaded(rows: int, cols: int, rng: np.random.Generator):
    array = build_array(get_design(DESIGN), ArrayGeometry(rows=rows, cols=cols))
    for row in range(rows):
        array.write(row, random_word(cols, rng, x_fraction=0.2))
    return array


def bench_nearest_kernel(
    n_keys: int = GATE_KEYS, scalar_keys: int = 128, repeats: int = 5
) -> dict:
    """Kernel ``nearest_match_batch`` vs the per-key reference loop.

    Timed in ``repeats`` paired rounds: each round runs the reference
    loop over the first ``scalar_keys`` keys (its keys/sec extrapolates
    from that subset), then the kernel batch over all ``n_keys`` keys
    with its tables pre-built.  The gated speedup is the median of the
    per-round speedups, so a slow host phase slows both sides of the
    rounds it hits instead of one side of the ratio.  Outcome identity
    is asserted on the first round's subset.
    """
    rng = np.random.default_rng(SEED)
    words_state = rng.bit_generator.state
    scalar = _build_loaded(GATE_ROWS, GATE_COLS, rng)
    rng.bit_generator.state = words_state
    kernel = _build_loaded(GATE_ROWS, GATE_COLS, rng)
    engine = kernel.kernel
    engine.precompute()
    engine.windows(range(GATE_COLS + 1))

    key_rng = np.random.default_rng(SEED + 1)
    keys = [random_word(GATE_COLS, key_rng, x_fraction=0.2) for _ in range(n_keys)]

    t_scalar, t_kernel = [], []
    for round_idx in range(repeats):
        t0 = time.perf_counter()
        ref = [reference.nearest_match(scalar, k) for k in keys[:scalar_keys]]
        t_scalar.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        got = kernel.nearest_match_batch(keys)
        t_kernel.append(time.perf_counter() - t0)
        if round_idx == 0:
            # Outcome identity: same winners, distances, delays and ledgers.
            for r, g in zip(ref, got):
                assert r.row == g.row and r.distance == g.distance
                assert r.search_delay == g.search_delay
                assert r.energy.as_dict() == g.energy.as_dict()

    speedups = [(n_keys / tk) / (scalar_keys / ts) for ts, tk in zip(t_scalar, t_kernel)]
    return {
        "rows": GATE_ROWS,
        "cols": GATE_COLS,
        "n_keys": n_keys,
        "scalar_keys_timed": scalar_keys,
        "repeats": repeats,
        "scalar_seconds": float(np.median(t_scalar)),
        "kernel_seconds": float(np.median(t_kernel)),
        "scalar_keys_per_sec": scalar_keys / float(np.median(t_scalar)),
        "kernel_keys_per_sec": n_keys / float(np.median(t_kernel)),
        "round_speedups": [round(x, 2) for x in speedups],
        "speedup": round(float(np.median(speedups)), 2),
    }


def time_index_build(n_entries: int, repeats: int = 3) -> dict:
    """Host wall time of ``RetrievalIndex`` construction on the corpus
    ``run_retrieval`` builds; best of ``repeats`` builds."""
    signatures = synthetic_corpus(CorpusConfig(n_entries=n_entries), seed=SEED)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        RetrievalIndex(signatures, design=DESIGN)
        best = min(best, time.perf_counter() - t0)
    return {
        "note": "host wall time, not modelled",
        "n_entries": n_entries,
        "index_build_s": best,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
    }


def run_bench(smoke: bool = False) -> dict:
    """Run the retrieval frontier + the kernel perf gate; return the record."""
    if smoke:
        retrieval = run_retrieval(
            n_entries=4_000,
            n_queries=16,
            k=5,
            thresholds=(2, 6, 10, 14, 18, 64),
            seed=SEED,
        )
        # The gate shape stays at the full 1024-key config even in smoke:
        # the reference loop is timed on a fixed key subset either way, and
        # smaller batches under-amortize the kernel's fixed per-batch
        # overhead.
        gate = bench_nearest_kernel()
    else:
        retrieval = run_retrieval(
            n_entries=100_000,
            n_queries=64,
            k=10,
            thresholds=(2, 4, 6, 8, 10, 12, 14, 16, 20, 64),
            seed=SEED,
        )
        gate = bench_nearest_kernel()
    host_time = time_index_build(retrieval["n_entries"])
    frontier = [
        row
        for row in retrieval["threshold_sweep"]
        if row["recall_at_k"] >= 0.9 and row["energy_vs_exact_baseline"] < 1.0
    ]
    return {
        "bench": "retrieval",
        "schema_version": SCHEMA_VERSION,
        "smoke": smoke,
        "design": DESIGN,
        "retrieval": retrieval,
        "nearest_kernel_gate": gate,
        "host_time": host_time,
        "frontier_points": [
            {
                "max_distance": row["max_distance"],
                "recall_at_k": row["recall_at_k"],
                "energy_vs_exact_baseline": row["energy_vs_exact_baseline"],
            }
            for row in frontier
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized corpus and key counts; does not write the JSON artifact",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the perf and frontier gates hold",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="kernel-vs-scalar nearest_match_batch floor for --check (default 10)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="write the record here instead of BENCH_retrieval.json",
    )
    args = parser.parse_args()

    record = run_bench(smoke=args.smoke)
    print(json.dumps(record, indent=2))

    if not args.smoke or args.output is not None:
        out = args.output or (REPO_ROOT / "BENCH_retrieval.json")
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nwrote {out}")

    if args.check:
        speedup = record["nearest_kernel_gate"]["speedup"]
        if speedup < args.min_speedup:
            raise SystemExit(
                f"kernel nearest_match_batch speedup {speedup}x is below "
                f"the {args.min_speedup}x target"
            )
        if record["retrieval"]["topk"]["recall_at_k"] != 1.0:
            raise SystemExit("merged top-k recall must be exactly 1.0")
        if not record["frontier_points"]:
            raise SystemExit(
                "no swept tolerance reached recall@k >= 0.9 with "
                "energy-per-query below the exact-search baseline"
            )
        print(
            f"\ncheck ok: kernel speedup {speedup}x >= {args.min_speedup}x, "
            f"{len(record['frontier_points'])} frontier point(s) at "
            "recall >= 0.9 below the exact-search energy baseline"
        )


if __name__ == "__main__":
    main()
