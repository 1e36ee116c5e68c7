"""Spans around calls into each layer, recorded from the benchmark's side.

The traced run patches the public entry points of every layer under
``src/repro/`` -- ``serve``, ``cluster``, ``workloads``, ``analysis``,
``tcam`` and ``kernels`` -- with wrappers that open a span on entry and
close it on exit.  A span records its name, start, end, parent and a few
counts; spans are kept in memory and written out when the run ends.
Nothing in the program changes, and untraced runs patch nothing; traced
runs must produce the same modelled outputs (the self-test checks this).

A span's self time is its duration minus its children's durations.
Self times of all spans under the ``bench.setup`` and ``bench.run``
roots add up to those roots' durations, so the per-layer split accounts
for the whole traced set-up (after the program import) and ``run_s``;
``bench.other_s`` is the part spent in the benchmark itself and in
program code it calls directly.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

# Span record fields.
NAME, START, END, PARENT, ATTRS = range(5)

#: Self-time metrics: every span name maps to exactly one of them, so
#: together they cover the traced setup and run phases.
SELF_TIME = {
    "bench.setup": "bench.other_s",
    "bench.run": "bench.other_s",
    "kernels.row": "kernels.self_s",
    "kernels.window_row": "kernels.self_s",
    "tcam.search": "tcam.search_s",
    "tcam.search_faulty": "tcam.search_faulty_s",
    "tcam.distance": "tcam.distance_s",
    "tcam.chip": "tcam.chip_self_s",
    "tcam.load": "tcam.load_s",
    "tcam.write": "tcam.write_s",
    "serve.run_trace": "serve.self_s",
    "serve.dispatch": "serve.self_s",
    "cluster.search": "cluster.fabric_self_s",
    "cluster.update": "cluster.update_s",
    "cluster.repair": "cluster.repair_s",
    "workloads.retrieval": "workloads.retrieval_self_s",
    "workloads.index_build": "workloads.index_build_s",
    "analysis.run_dse": "analysis.dse_self_s",
    "analysis.point": "analysis.dse_self_s",
}

#: Every per-layer metric and its unit (the ``per_layer`` list of BENCHMARK.json).
LAYER_UNITS = {
    "kernels.self_s": "s",
    "kernels.table_build_s": "s",
    "kernels.rows_built": "count",
    "kernels.window_build_s": "s",
    "kernels.table_hits": "count",
    "kernels.rk4_fallbacks": "count",
    "kernels.hit_ratio": "fraction",
    "tcam.search_s": "s",
    "tcam.search_keys": "count",
    "tcam.search_faulty_s": "s",
    "tcam.search_faulty_keys": "count",
    "tcam.distance_s": "s",
    "tcam.distance_calls": "count",
    "tcam.distance_keys": "count",
    "tcam.chip_self_s": "s",
    "tcam.load_s": "s",
    "tcam.write_s": "s",
    "tcam.writes": "count",
    "tcam.host_us_per_key": "us/key",
    "serve.self_s": "s",
    "serve.batches": "count",
    "serve.mean_batch": "keys",
    "serve.batch_host_p50_ms": "ms",
    "serve.batch_host_p99_ms": "ms",
    "cluster.fabric_self_s": "s",
    "cluster.update_s": "s",
    "cluster.updates": "count",
    "cluster.repair_s": "s",
    "cluster.probes_per_query": "probes/query",
    "workloads.retrieval_self_s": "s",
    "workloads.index_build_s": "s",
    "analysis.dse_self_s": "s",
    "analysis.points": "count",
    "host.cpu_s": "s",
    "host.traced_run_s": "s",
    "host.trace_overhead": "fraction",
    "bench.other_s": "s",
}


def _kernel_counts(array) -> tuple[int, int] | None:
    engine = getattr(array, "kernel", None)
    if engine is None:
        return None
    return engine.table_hits, engine.rk4_fallbacks


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS].update(attrs)
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` if it exists."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _simple(self, name: str):
        """Wrapper factory: one span around the call, no counts."""

        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                idx = self.begin(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.end(idx)

            return wrapper

        return make

    def _array_keys(self, faulty_split: bool):
        """Wrapper factory for array batch searches: keys and kernel counts."""

        def make(orig):
            @functools.wraps(orig)
            def wrapper(array, keys, *args, **kwargs):
                keys = list(keys)
                name = "tcam.distance"
                if faulty_split:
                    faults = array.faults
                    faulty = faults is not None and not faults.is_empty()
                    name = "tcam.search_faulty" if faulty else "tcam.search"
                before = _kernel_counts(array)
                idx = self.begin(name, keys=len(keys))
                try:
                    return orig(array, keys, *args, **kwargs)
                finally:
                    after = _kernel_counts(array)
                    if before is not None and after is not None:
                        self.end(idx, hits=after[0] - before[0], fallbacks=after[1] - before[1])
                    else:
                        self.end(idx)

            return wrapper

        return make

    def _kernel_row(self, orig):
        @functools.wraps(orig)
        def row(engine, driven, *args, **kwargs):
            built = engine.rows_built
            idx = self.begin("kernels.row")
            try:
                return orig(engine, driven, *args, **kwargs)
            finally:
                self.end(idx, built=engine.rows_built > built)

        return row

    def _kernel_window(self, orig):
        @functools.wraps(orig)
        def window_row(engine, driven, *args, **kwargs):
            # The engine exposes no window-build counter; a window row is
            # built on the first request for its ``driven`` value.
            built = driven not in getattr(engine, "_window_rows", {driven: None})
            idx = self.begin("kernels.window_row")
            try:
                return orig(engine, driven, *args, **kwargs)
            finally:
                self.end(idx, built=built)

        return window_row

    def _fabric_search(self, orig):
        @functools.wraps(orig)
        def search_batch(fabric, keys, *args, **kwargs):
            keys = list(keys)
            probes = fabric.probes_issued
            idx = self.begin("cluster.search", keys=len(keys))
            try:
                return orig(fabric, keys, *args, **kwargs)
            finally:
                self.end(idx, probes=fabric.probes_issued - probes)

        return search_batch

    def _updates(self, orig):
        @functools.wraps(orig)
        def apply(engine, updates, *args, **kwargs):
            updates = list(updates)
            idx = self.begin("cluster.update", updates=len(updates))
            try:
                return orig(engine, updates, *args, **kwargs)
            finally:
                self.end(idx)

        return apply

    def _dispatch(self, orig):
        @functools.wraps(orig)
        def search_batch(backend, keys, banks, *args, **kwargs):
            keys = list(keys)
            idx = self.begin("serve.dispatch", keys=len(keys))
            try:
                return orig(backend, keys, banks, *args, **kwargs)
            finally:
                self.end(idx)

        return search_batch

    def install(self) -> None:
        """Patch every layer's entry points (those that exist)."""
        from repro import cluster, serve
        from repro.analysis import dse
        from repro.cluster import FabricBackend, TCAMFabric, UpdateEngine
        from repro.kernels import KernelEngine
        from repro.serve import ArrayBackend, ChipBackend
        from repro.tcam.array import TCAMArray
        from repro.tcam.chip import TCAMChip
        from repro.workloads.retrieval import RetrievalIndex

        self._patch(TCAMArray, "search_batch", self._array_keys(faulty_split=True))
        for method in ("nearest_match_batch", "threshold_match_batch", "topk_match_batch"):
            self._patch(TCAMArray, method, self._array_keys(faulty_split=False))
        self._patch(TCAMArray, "load_rows", self._simple("tcam.load"))
        self._patch(TCAMArray, "write", self._simple("tcam.write"))
        self._patch(TCAMChip, "search_batch", self._simple("tcam.chip"))
        self._patch(TCAMChip, "load_rows", self._simple("tcam.chip"))
        self._patch(KernelEngine, "row", self._kernel_row)
        self._patch(KernelEngine, "window_row", self._kernel_window)
        self._patch(TCAMFabric, "search_batch", self._fabric_search)
        self._patch(UpdateEngine, "apply", self._updates)
        self._patch(cluster, "age_and_repair", self._simple("cluster.repair"))
        for method in ("query_topk", "query_threshold"):
            self._patch(RetrievalIndex, method, self._simple("workloads.retrieval"))
        self._patch(RetrievalIndex, "__init__", self._simple("workloads.index_build"))
        self._patch(dse, "run_dse", self._simple("analysis.run_dse"))
        self._patch(dse, "evaluate_point", self._simple("analysis.point"))
        self._patch(serve, "run_trace", self._simple("serve.run_trace"))
        for backend in (ArrayBackend, ChipBackend, FabricBackend):
            self._patch(backend, "search_batch", self._dispatch)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span (host-side ones excluded)."""
        out = {name: 0.0 for name in LAYER_UNITS}
        selfs = self.self_times()
        lookups = builds = 0
        batch_ms = []
        probes = queries = search_keys = 0
        for span, own in zip(self.spans, selfs):
            name, attrs = span[NAME], span[ATTRS]
            dur = span[END] - span[START]
            out[SELF_TIME[name]] += own
            if name in ("kernels.row", "kernels.window_row"):
                lookups += 1
                if attrs["built"]:
                    builds += 1
                    if name == "kernels.row":
                        out["kernels.table_build_s"] += dur
                        out["kernels.rows_built"] += 1
                    else:
                        out["kernels.window_build_s"] += dur
            elif name in ("tcam.search", "tcam.search_faulty", "tcam.distance"):
                keys = attrs["keys"]
                search_keys += keys
                out["kernels.table_hits"] += attrs.get("hits", 0)
                out["kernels.rk4_fallbacks"] += attrs.get("fallbacks", 0)
                if name == "tcam.distance":
                    out["tcam.distance_calls"] += 1
                    out["tcam.distance_keys"] += keys
                else:
                    out[name + "_keys"] += keys
            elif name == "tcam.write":
                out["tcam.writes"] += 1
            elif name == "serve.dispatch":
                out["serve.batches"] += 1
                out["serve.mean_batch"] += attrs["keys"]
                batch_ms.append(dur * 1e3)
            elif name == "cluster.search":
                probes += attrs["probes"]
                queries += attrs["keys"]
            elif name == "cluster.update":
                out["cluster.updates"] += attrs["updates"]
            elif name == "analysis.point":
                out["analysis.points"] += 1
        if lookups:
            out["kernels.hit_ratio"] = (lookups - builds) / lookups
        if out["serve.batches"]:
            out["serve.mean_batch"] /= out["serve.batches"]
            out["serve.batch_host_p50_ms"] = float(np.percentile(batch_ms, 50))
            out["serve.batch_host_p99_ms"] = float(np.percentile(batch_ms, 99))
        if queries:
            out["cluster.probes_per_query"] = probes / queries
        if search_keys:
            searched = out["tcam.search_s"] + out["tcam.search_faulty_s"] + out["tcam.distance_s"]
            out["tcam.host_us_per_key"] = searched / search_keys * 1e6
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s[NAME], "start": s[START], "end": s[END],
                         "parent": s[PARENT], **s[ATTRS]}
                    )
                    + "\n"
                )
