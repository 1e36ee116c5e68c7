"""Cluster scaling frontier: 1 -> 64 chips under the serving workload.

Runs the :mod:`repro.cluster` scaling campaign -- one fixed rule table
sharded over growing chip counts under each distributor policy, served
by the ``repro.serve`` open-loop workload at a saturating offered rate,
then churned (BGP-style add/withdraw stream) and aged (wear-
proportional faults + spare-row repair) -- and writes the
throughput / energy-per-query / yield frontier to
``BENCH_cluster.json``.  All times and energies are modeled, so the
frontier is bit-reproducible on any host.

The gates ``--check`` asserts:

* **Conservation** -- every point satisfies the serving layer's exact
  request accounting (``offered == completed + rejected``) *and* the
  fabric's probe accounting (every served query's probe set is
  reflected in the fabric's probe counter).
* **Monotone scaling** -- range-sharded throughput is non-decreasing
  from 1 to 4 chips (single-probe routing on dedicated links: more
  chips can never serve slower).
* **Churn integrity** -- after the update stream, fabric winners equal
  the logical oracle over the surviving rule set at every point.
* **Broadcast energy** -- hash placement's energy per query grows with
  chip count (every query pays for every shard), the trade the
  range/replicated policies exist to dodge.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py            # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_cluster.py --check    # assert
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.cluster import run_cluster_campaign
from repro.tcam.outcome import SCHEMA_VERSION

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "fefet2t"
SEED = 424242

#: Full-run shape: the 1 -> 64 sweep of the issue.
CHIP_COUNTS = (1, 2, 4, 8, 16, 32, 64)
N_RULES, COLS = 256, 32
N_REQUESTS = 400
CHURN_UPDATES = 120

#: CI smoke shape: 1 -> 4 chips, small table, short trace.
CHIP_COUNTS_SMOKE = (1, 2, 4)
N_RULES_SMOKE, COLS_SMOKE = 96, 24
N_REQUESTS_SMOKE = 160
CHURN_UPDATES_SMOKE = 50

POLICIES = ("hash", "range", "replicated")


def run_bench(smoke: bool) -> dict:
    record = run_cluster_campaign(
        design=DESIGN,
        n_rules=N_RULES_SMOKE if smoke else N_RULES,
        cols=COLS_SMOKE if smoke else COLS,
        spare_rows=2,
        chip_counts=CHIP_COUNTS_SMOKE if smoke else CHIP_COUNTS,
        policies=POLICIES,
        topology="p2p",
        n_requests=N_REQUESTS_SMOKE if smoke else N_REQUESTS,
        churn_updates=CHURN_UPDATES_SMOKE if smoke else CHURN_UPDATES,
        wear_density=0.02,
        seed=SEED,
    )
    by_policy = {
        name: sorted(
            (p for p in record["points"] if p["policy"] == name),
            key=lambda p: p["n_chips"],
        )
        for name in POLICIES
    }
    rng = by_policy["range"]
    hsh = by_policy["hash"]
    record["summary"] = {
        "chip_counts": [p["n_chips"] for p in rng],
        "range_throughput": [p["throughput"] for p in rng],
        "range_scaling": rng[-1]["throughput"] / rng[0]["throughput"],
        "hash_energy_per_query": [p["energy_per_query"] for p in hsh],
        "range_energy_per_query": [p["energy_per_query"] for p in rng],
        "max_link_fraction": max(p["link_fraction"] for p in record["points"]),
        "min_availability": min(p["availability"] for p in record["points"]),
        "all_conserved": all(p["conserved"] for p in record["points"]),
        "all_churn_integrity": all(
            p["churn_integrity"] for p in record["points"]
        ),
    }
    return record


def check(record: dict) -> None:
    """Assert the scaling gates (used by CI and ``--check``)."""
    assert record["schema_version"] == SCHEMA_VERSION
    s = record["summary"]
    assert s["all_conserved"], (
        "a point broke request/probe conservation across the shards"
    )
    assert s["all_churn_integrity"], (
        "fabric winners diverged from the logical oracle after churn"
    )
    rng = sorted(
        (p for p in record["points"] if p["policy"] == "range"),
        key=lambda p: p["n_chips"],
    )
    small = [p for p in rng if p["n_chips"] <= 4]
    for a, b in zip(small, small[1:]):
        assert b["throughput"] >= a["throughput"] * (1.0 - 1e-9), (
            f"range throughput fell from {a['throughput']:.3g}/s at "
            f"{a['n_chips']} chips to {b['throughput']:.3g}/s at "
            f"{b['n_chips']} chips"
        )
    hsh = sorted(
        (p for p in record["points"] if p["policy"] == "hash"),
        key=lambda p: p["n_chips"],
    )
    assert hsh[-1]["energy_per_query"] > hsh[0]["energy_per_query"], (
        "hash broadcast energy/query failed to grow with chip count"
    )
    for p in record["points"]:
        assert 0.0 <= p["availability"] <= 1.0
        assert p["probes_per_query"] >= 1.0 or p["completed"] == 0
    print(
        f"OK: {len(record['points'])} points conserved, range scales "
        f"{s['range_scaling']:.2f}x over {rng[0]['n_chips']}->"
        f"{rng[-1]['n_chips']} chips (monotone 1->4), churn integrity "
        f"exact, min availability {s['min_availability']:.3f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (no BENCH_cluster.json update)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the scaling gates hold (conservation "
             "across shards, monotone 1->4-chip range throughput, churn "
             "integrity, growing broadcast energy)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_cluster.json",
        help="where to write the JSON record (full runs only)",
    )
    args = parser.parse_args()

    record = run_bench(smoke=args.smoke)
    print(json.dumps(record["summary"], indent=2))
    if not args.smoke:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        check(record)


if __name__ == "__main__":
    main()
