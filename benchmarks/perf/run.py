"""Host-time benchmark of the repro simulator: four workloads, cold and warm.

A run executes one workload in a fresh single-process subprocess
(``worker.py``) with BLAS pinned to one thread.  There the workload is
set up and run over and over in cycles, and the run reports host time:
``setup_s``, the first pass on fresh state ``run_s``, the same inputs
again on warm state ``warm_run_s``, ``ops_per_s`` and ``peak_rss_mb``,
each the median over the timed cycles (minimum and maximum are printed
beside it).  Times are scaled by a yardstick task timed around every
phase, so that they do not follow the host's speed; the unscaled
medians are printed too.  Every cycle's outputs are checked against an oracle;
modelled figures (pJ/query, modelled latency, recall, availability) are
printed apart, labelled *modeled*, and only ever used as checks.

One workload for a time budget, ending with one JSON result line::

    python3 benchmarks/perf/run.py --workload serve --seed 0 --seconds 28 --trace 0

All four workloads, each for the same budget, writing a results file::

    python3 benchmarks/perf/run.py --seed 0 [--trace] [--out FILE]

Two results files side by side::

    python3 benchmarks/perf/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from worker import YARDSTICK_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"

#: Unit of each end-to-end metric.  A run reports the median of a
#: metric's samples over its timed cycles.  Times are yardstick-scaled
#: (see ``worker.py``): a shared host's speed swings by up to 2x in
#: phases longer than a run, so unscaled medians of runs made minutes
#: apart disagree by more than any useful bound.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "warm_run_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Environment of every workload subprocess: BLAS on one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: A run stops a workload subprocess still running this long after the
#: run started.
DEADLINE_S = 170.0


# ---------------------------------------------------------------------------
# Workload subprocesses
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, size: str, seconds: float, trace: bool,
          timeout: float) -> dict:
    """Run ``worker.py`` in a fresh subprocess; return its record.

    A subprocess that crashes or times out returns ``{"error": ...}``.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--size", size, "--seconds", str(seconds)]
    if trace:
        RESULTS.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(RESULTS / f"spans-{workload}-seed{seed}.jsonl")]
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{workload}: subprocess exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"{workload}: exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


def budgeted(workload: str, seed: int, seconds: float, trace: bool, size: str) -> list[dict]:
    """One untraced subprocess for the budget, then (``trace``) a traced one.

    The untraced subprocess times cycles for the whole budget, or for its
    first two thirds when a traced one follows: it carries every
    end-to-end statistic, while one traced cycle gives the per-layer split.
    """
    start = time.monotonic()
    records = [spawn(workload, seed, size, seconds * 2 / 3 if trace else seconds, False,
                     DEADLINE_S)]
    if trace and "error" not in records[0]:
        records.append(spawn(workload, seed, size, 0.0, True,
                             DEADLINE_S - (time.monotonic() - start)))
    return records


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def summarize(records: list[dict]) -> dict:
    """Metric values, checks and modelled figures of one workload's records."""
    ok = [r for r in records if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    attempted = sum(r["attempted"] for r in ok)
    failed = sum(r["failed"] for r in ok)
    failures = [r["error"] for r in records if "error" in r]
    failures += [m for r in ok for m in r["failures"]]
    attempted += len(records) - len(ok)
    failed += len(records) - len(ok)
    # Every subprocess ran the same inputs: modelled outputs must repeat.
    for r in ok[1:]:
        attempted += 1
        if r["modeled"] != ok[0]["modeled"]:
            failed += 1
            failures.append("modelled outputs differ between subprocesses")

    values = {
        "setup_s": [v for r in plain for v in r["setup_s"]],
        "run_s": [v for r in plain for v in r["run_s"]],
        "warm_run_s": [v for r in plain for v in r["warm_run_s"]],
        "ops_per_s": [r["ops"] / v for r in plain for v in r["run_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    metrics = {
        name: {
            "unit": unit,
            "values": values[name],
            "value": statistics.median(values[name]) if values[name] else None,
        }
        for name, unit in END_TO_END.items()
    }
    # The same phases unscaled, and the yardstick times they were scaled by.
    unscaled = {
        phase: statistics.median(samples)
        for phase in ("setup_s", "run_s", "warm_run_s")
        if (samples := [v for r in plain for v in r["raw"][phase]])
    }
    sticks = [v for r in plain for v in r["yardstick_s"]]
    layers = {}
    if traced:
        # One traced cycle's split, so that its self-times add up.
        split = traced[0]["layers"]
        if plain:
            split["host.trace_overhead"] = (
                traced[0]["run_s"][0] / metrics["run_s"]["value"] - 1.0
            )
        layers = {
            name: {"unit": unit, "values": [split[name]], "value": split[name]}
            for name, unit in LAYER_UNITS.items()
        }
    return {
        "cycles": len(values["run_s"]),
        "traced_cycles": len(traced),
        "unscaled": unscaled,
        "yardstick_s": statistics.median(sticks) if sticks else None,
        "kernel_path": ok[0]["kernel_path"] if ok else None,
        "attempted": max(attempted, 1),
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "failures": failures[:10],
        "modeled": ok[0]["modeled"] if ok else {},
        "metrics": metrics,
        "layers": layers,
    }


def fingerprint() -> dict:
    """Host, toolchain and commit the numbers were measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # Look for a repository at the checkout root only, never above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def print_summary(name: str, summary: dict) -> None:
    print(f"== {name}: {summary['cycles']} timed cycles "
          f"(+{summary['traced_cycles']} traced), kernels.path={summary['kernel_path']}")
    for group in ("metrics", "layers"):
        for metric, entry in summary[group].items():
            vals = entry["values"]
            if not vals:
                continue
            print(f"  {metric:28s} {_fmt(entry['value']):>12s} {entry['unit']:13s}"
                  f"(median {_fmt(statistics.median(vals))}, min {_fmt(min(vals))},"
                  f" max {_fmt(max(vals))}, n={len(vals)})")
    if summary["yardstick_s"] is not None:
        unscaled = ", ".join(f"{k}={_fmt(v)}" for k, v in summary["unscaled"].items())
        print(f"  unscaled medians (s): {unscaled}; yardstick median"
              f" {_fmt(summary['yardstick_s'] * 1e3)} ms, scaled to {_fmt(YARDSTICK_S * 1e3)} ms")
    print(f"  {'error_rate':28s} {_fmt(summary['error_rate']):>12s} {'fraction':13s}"
          f" ({summary['failed']} of {summary['attempted']} checks failed)")
    for message in summary["failures"]:
        print(f"    FAILED: {message}")
    modeled = ", ".join(f"{k}={_fmt(v)}" for k, v in summary["modeled"].items())
    print(f"  modeled (not host time): {modeled}")


def result_line(summary: dict, trace: bool) -> str:
    """The contract's JSON result: end-to-end metrics, or per-layer ones."""
    entries = summary["layers"] if trace else summary["metrics"]
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in entries.items()
        },
    })


def compare(path_a: Path, path_b: Path) -> None:
    """Per (workload, metric): each set's median and quartiles, and a verdict.

    The verdict compares the two reported values.  It is "unresolved"
    when either set's quartile spread is wider than the bound, unless
    every cycle of B beats every cycle of A.
    """
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    bounds = {}
    if BENCHMARK_JSON.exists():
        for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]:
            bounds[m["name"]] = (m["better"], m["bound"])

    def quartiles(vals):
        if len(vals) < 2:
            return vals[0], vals[0]
        q = statistics.quantiles(vals, n=4)
        return q[0], q[2]

    print(f"A = {path_a}  (commit {a['fingerprint']['commit'][:12]})")
    print(f"B = {path_b}  (commit {b['fingerprint']['commit'][:12]})")
    print("each side: reported value (median [quartiles] of its cycles)")
    for name in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for metric, ea in a["workloads"][name]["metrics"].items():
            eb = b["workloads"][name]["metrics"].get(metric)
            if eb is None or not ea["values"] or not eb["values"]:
                continue
            va, vb = ea["values"], eb["values"]
            ma, mb = statistics.median(va), statistics.median(vb)
            (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
            verdict = "no bound"
            if metric in bounds:
                better, bound = bounds[metric]
                sign = 1.0 if better == "lower" else -1.0
                worse = sign * (eb["value"] - ea["value"]) / ea["value"]
                spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
                b_wins = (max(vb) < min(va)) if better == "lower" else (min(vb) > max(va))
                if spread > bound and not b_wins:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "outside bound"
                else:
                    verdict = "within bound"
            print(f"{name:14s} {metric:12s} {ea['unit']:4s}"
                  f" A {_fmt(ea['value']):>9s} (median {_fmt(ma)} [{_fmt(qa1)}, {_fmt(qa3)}])"
                  f" B {_fmt(eb['value']):>9s} (median {_fmt(mb)} [{_fmt(qb1)}, {_fmt(qb3)}])"
                  f"  {verdict}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="the one workload to run (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measuring budget per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add a traced cycle and report the per-layer metrics")
    parser.add_argument("--size", default="default", choices=("default", "tiny"),
                        help="input size (tiny is for the self-test)")
    parser.add_argument("--out", type=Path, help="results file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--write-references", action="store_true",
                        help="record this seed-0 run's modelled outputs as the references")
    args = parser.parse_args()
    # On SIGTERM, unwind normally so that a running workload subprocess is
    # killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        compare(*args.compare)
        return 0
    if args.write_references and (args.seed != 0 or args.size != "default" or args.workload):
        parser.error("--write-references needs --seed 0, the default size and every workload")
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: the program is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {"seed": args.seed, "size": args.size, "fingerprint": fingerprint(),
               "workloads": {}}
    host = results["fingerprint"]
    print(f"# host: nproc={host['nproc']} blas={host['blas']} threads={host['blas_threads']}"
          f" python={host['python']} numpy={host['numpy']} commit={host['commit'][:12]}")
    for name in names:
        summary = summarize(budgeted(name, args.seed, args.seconds, bool(args.trace), args.size))
        results["workloads"][name] = summary
        print_summary(name, summary)

    out = args.out
    if out is None and not args.workload:
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"perf-seed{args.seed}.json"
    if out is not None:
        out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"# wrote {out}")
    if args.write_references:
        missing = [name for name, s in results["workloads"].items() if not s["modeled"]]
        if missing:
            print(f"error: no modelled outputs from {', '.join(missing)}; references kept",
                  file=sys.stderr)
            return 1
        modeled = {name: s["modeled"] for name, s in results["workloads"].items()}
        REFERENCES.write_text(json.dumps(modeled, indent=1, sort_keys=True) + "\n")
        print(f"# wrote {REFERENCES}")

    if args.workload:
        summary = results["workloads"][args.workload]
        if summary["metrics"]["run_s"]["value"] is None:
            print("error: no cycle completed", file=sys.stderr)
            return 1
        print(result_line(summary, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
