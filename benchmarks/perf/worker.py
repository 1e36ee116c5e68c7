"""One workload in a fresh process: a warm-up cycle, then timed cycles.

Started by ``run.py`` (which pins BLAS to one thread in its
environment); prints one JSON record as its last line of output::

    python benchmarks/perf/worker.py --workload serve --seed 0 --seconds 28 [--trace] [--spans FILE]

A *cycle* sets the workload up afresh (``setup_s``), runs it on that
fresh state (``run_s``, lazy table builds included) and runs the same
inputs again on the state the first pass left (``warm_run_s``); both
passes' outputs are then checked.  Inputs are drawn once from the seed,
before any timer starts.  The first cycle warms the process up and is
not timed; timed cycles follow until ``--seconds`` is spent.  Every
cycle must give the same modelled outputs.

Each phase is timed between two runs of ``yardstick()``, a fixed task
that shares no code with the program, and its host time is reported
scaled to a host on which the yardstick takes ``YARDSTICK_S``.  The raw
seconds and yardstick times are recorded beside the scaled ones.

Traced: after the warm-up cycle the layer wrappers of ``tracer.py`` are
installed and one cycle's set-up and first pass run under them; the
record carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SELF_TIME, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

REFERENCES = HERE / "references.json"
#: Modelled outputs must match the recorded reference this closely.
REFERENCE_RTOL = 1e-9
#: Per-layer self-times must add up to the traced phase times this closely
#: (relative, with an absolute floor for phases shorter than the spans'
#: own bookkeeping can resolve).
SUM_RTOL = 0.02
SUM_ATOL_S = 1e-3
#: Timed cycles made whatever the budget.
MIN_CYCLES = 3
#: One ``setup_s`` sample repeats the set-up until this much time is
#: spent and reports the mean, so that a set-up of a few milliseconds
#: is not a single timer reading.
SETUP_SAMPLE_S = 0.05
#: Loop counts of ``yardstick()``'s two halves, and the time it is scaled to.
YARDSTICK_PY_LOOPS = 45_000
YARDSTICK_NP_LOOPS = 750
YARDSTICK_S = 0.02
_YARDSTICK_ROW = np.arange(64, dtype=np.float64)

PHASES = ("setup_s", "run_s", "warm_run_s")


def yardstick() -> float:
    """Time a fixed task that shares no code with the program.

    About two thirds of it is interpreter work and one third many small
    numpy calls: of the mixes tried, the one whose slow-down followed the
    four workloads' most closely.  A shared host's speed swings by up to
    2x in phases of seconds to minutes; this task slows with it, so the
    ratio of a phase's time to the yardstick's time around it holds
    still while the host does not.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(YARDSTICK_PY_LOOPS):
        acc += i * i % 7
        table[i & 1023] = acc
        if i % 3 == 0:
            acc ^= len(table)
    row = _YARDSTICK_ROW
    for _ in range(YARDSTICK_NP_LOOPS):
        row = np.where(row > 3.0, row * 0.5, row + 1.0)
        row.sum()
    return time.perf_counter() - t0


def scaled(raw_s: float, before: float, after: float) -> float:
    """``raw_s`` on a host where the yardstick takes ``YARDSTICK_S``."""
    return raw_s * YARDSTICK_S * 2.0 / (before + after)


def timed_setup(wl, inputs: dict, min_s: float) -> tuple[float, dict]:
    """Set the workload up until ``min_s`` is spent; mean time and last state."""
    reps, spent = 0, 0.0
    while True:
        state = None  # free the previous state before building the next
        t0 = time.perf_counter()
        state = wl.setup(inputs)
        spent += time.perf_counter() - t0
        reps += 1
        if spent >= min_s:
            return spent / reps, state


def cycle(wl, inputs: dict, checks: Checks, setup_min_s: float = SETUP_SAMPLE_S) -> dict:
    """One untraced cycle: set-up, first pass, warm pass, checks.

    Each timed phase starts after a garbage collection, so that it does
    not pay for the previous phase's garbage.  ``sticks`` holds the
    yardstick times before, between and after the three timed phases;
    ``rss_mb`` is the peak RSS so far, read before the checks.
    """
    gc.collect()
    sticks = [yardstick()]
    setup_s, state = timed_setup(wl, inputs, setup_min_s)
    gc.collect()
    sticks.append(yardstick())
    t0 = time.perf_counter()
    cold = wl.run(state, inputs)
    run_s = time.perf_counter() - t0
    state = wl.rearm(state, inputs)
    gc.collect()
    sticks.append(yardstick())
    t1 = time.perf_counter()
    warm = wl.run(state, inputs)
    warm_run_s = time.perf_counter() - t1
    sticks.append(yardstick())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    path = state["kernel_path"]
    del state
    cold_checks, modeled = wl.check(inputs, cold)
    checks.merge(cold_checks)
    checks.merge(wl.check_warm(inputs, cold, warm))
    return {
        "raw": dict(zip(PHASES, (setup_s, run_s, warm_run_s))), "sticks": sticks,
        "ops": wl.ops(cold), "modeled": modeled, "kernel_path": path, "rss_mb": rss_mb,
    }


def run_once(workload: str, seed: int, size: str = "default", trace: bool = False,
             spans: str | None = None, seconds: float = 0.0) -> dict:
    """Run one workload's cycles and return their record.

    ``setup_s``, ``run_s`` and ``warm_run_s`` are lists over the timed
    cycles of scaled seconds; ``raw`` holds the same lists unscaled.
    """
    wl = WORKLOADS[workload]
    t_import = time.perf_counter()
    for module in wl.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t_import
    inputs = wl.make_inputs(seed, size)
    checks = Checks()

    # The warm-up cycle sets up once, so that its allocations, and the
    # peak RSS they reach, do not depend on the host's speed.
    first = cycle(wl, inputs, checks, setup_min_s=0.0)
    record = {
        "workload": workload, "seed": seed, "size": size, "traced": trace,
        "kernel_path": first["kernel_path"], "import_s": import_s, "ops": first["ops"],
        "peak_rss_mb": first["rss_mb"], "yardstick_s": [], "raw": {p: [] for p in PHASES},
        **{p: [] for p in PHASES},
    }

    def add(raw: dict, sticks: list[float]) -> None:
        record["yardstick_s"].extend(sticks)
        for i, phase in enumerate(raw):
            record["raw"][phase].append(raw[phase])
            record[phase].append(scaled(raw[phase], sticks[i], sticks[i + 1]))

    if trace:
        raw, sticks, layers = traced_cycle(wl, inputs, checks, first, spans)
        add(raw, sticks)
        record["layers"] = layers
    else:
        start, took = time.perf_counter(), []
        while len(took) < MIN_CYCLES or (
            time.perf_counter() - start + statistics.fmean(took) <= seconds
        ):
            t0 = time.perf_counter()
            got = cycle(wl, inputs, checks)
            took.append(time.perf_counter() - t0)
            checks.expect(got["modeled"] == first["modeled"],
                          "modelled outputs differ between cycles")
            checks.expect(got["ops"] == first["ops"], "op count differs between cycles")
            add(got["raw"], got["sticks"])
    if size == "default" and seed == 0 and REFERENCES.exists():
        reference = json.loads(REFERENCES.read_text()).get(workload)
        checks.expect(reference is not None, f"no recorded reference for {workload}")
        check_references(checks, first["modeled"], reference or {})
    record.update(
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.messages,
        modeled=first["modeled"],
    )
    return record


def traced_cycle(wl, inputs: dict, checks: Checks, first: dict, spans: str | None):
    """Set-up and first pass under the layer wrappers.

    Returns the raw phase times, the yardstick times around them and the
    per-layer metrics.
    """
    tracer = Tracer()
    gc.collect()
    sticks = [yardstick()]
    tracer.install()
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            state = wl.setup(inputs)
        setup_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        gc.collect()
        sticks.append(yardstick())
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span("bench.run"):
            result = wl.run(state, inputs)
        run_s = time.perf_counter() - t0
        cpu_s += time.process_time() - cpu0
    finally:
        tracer.uninstall()
    sticks.append(yardstick())
    del state

    traced_checks, modeled = wl.check(inputs, result)
    checks.merge(traced_checks)
    checks.expect(modeled == first["modeled"], "modelled outputs differ with tracing on")
    layers = tracer.layer_metrics()
    layers["host.cpu_s"] = cpu_s
    layers["host.traced_run_s"] = run_s
    traced_s = setup_s + run_s
    covered = sum(layers[m] for m in set(SELF_TIME.values()))
    checks.expect(
        abs(covered - traced_s) <= max(SUM_RTOL * traced_s, SUM_ATOL_S),
        f"layer self-times {covered:.4f} s != traced set-up + run {traced_s:.4f} s",
    )
    checks.expect(min(tracer.self_times(), default=0.0) > -1e-6, "a span outlasts its parent")
    if spans:
        tracer.write(spans)
    return {"setup_s": setup_s, "run_s": run_s}, sticks, layers


def check_references(checks: Checks, modeled: dict, reference: dict) -> None:
    """Every recorded modelled figure must be within ``REFERENCE_RTOL``."""
    for key, want in reference.items():
        got = modeled.get(key)
        close = got is not None and abs(got - want) <= REFERENCE_RTOL * max(abs(got), abs(want))
        checks.expect(close, f"modelled {key} = {got!r}, reference {want!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="default", choices=("default", "tiny"))
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget of the timed cycles (at least 3 are made)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (JSON lines)")
    args = parser.parse_args()
    record = run_once(args.workload, args.seed, args.size, args.trace, args.spans, args.seconds)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
