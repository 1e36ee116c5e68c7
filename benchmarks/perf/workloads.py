"""The four workloads of the host-time benchmark.

Each workload is driven in four steps by ``worker.py``:

* ``make_inputs(seed, size)`` draws every input -- stored content, keys,
  arrival traces, corpora, rule tables, churn streams -- from the seed
  and converts it to the program's types.  Not timed.
* ``setup(inputs)`` builds the arrays, fabric or index and loads the
  content, up to the first query.  Timed as ``setup_s``.
* ``run(state, inputs)`` is the measured phase.  Timed as ``run_s`` on
  the state ``setup`` just built and, on the state ``rearm`` returns, as
  ``warm_run_s``.
* ``check(inputs, result)`` compares every output with an oracle that
  shares no code with the program, and returns the modelled figures.
  Not timed.  Oracles depend on the inputs alone, so each is computed
  once (``memo``) and reused by every cycle.

The program receives only the generated inputs.  Every workload runs
the compiled kernel path: where the API still has a switch
(``enable_kernel`` / ``use_kernel=``) it is turned on, found by feature
detection so that deleting the switch needs no edit here.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

X = 2  # trit code of a don't-care (repro.tcam.trit.Trit.X)


# ---------------------------------------------------------------------------
# Check bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Checks:
    """Attempted / failed output checks of one workload pass."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def expect_all(self, ok: np.ndarray, message: str) -> None:
        """One check per element of a boolean array."""
        ok = np.asarray(ok, dtype=bool)
        self.attempted += int(ok.size)
        bad = int(ok.size - np.count_nonzero(ok))
        if bad:
            self.failed += bad
            if len(self.messages) < 10:
                self.messages.append(f"{message}: {bad} of {ok.size}")

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: max(0, 10 - len(self.messages))])


# ---------------------------------------------------------------------------
# Kernel switch (feature-detected)
# ---------------------------------------------------------------------------

KERNEL_SWITCH = "switch"
KERNEL_ALWAYS = "always-on"


def kernel_on(array) -> str:
    """Turn on an array's compiled path if the API still offers a switch."""
    enable = getattr(array, "enable_kernel", None)
    if enable is None:
        return KERNEL_ALWAYS
    enable()
    return KERNEL_SWITCH


def kernel_kwargs(fn) -> tuple[dict, str]:
    """``use_kernel=True`` for ``fn`` if its signature still takes it."""
    if "use_kernel" in inspect.signature(fn).parameters:
        return {"use_kernel": True}, KERNEL_SWITCH
    return {}, KERNEL_ALWAYS


# ---------------------------------------------------------------------------
# Oracles: plain numpy, no program code
# ---------------------------------------------------------------------------


def memo(inputs: dict, key: str, make):
    """``make()``, computed once per set of inputs and reused by every cycle."""
    if key not in inputs:
        inputs[key] = make()
    return inputs[key]


def random_trits(rng: np.random.Generator, shape, x_fraction: float) -> np.ndarray:
    """Trit codes in {0, 1, X} with the given don't-care fraction."""
    bits = rng.integers(0, 2, size=shape)
    xs = rng.random(shape) < x_fraction
    return np.where(xs, X, bits).astype(np.int8)


def keys_near(rng: np.random.Generator, stored: np.ndarray, n: int, hit_share: float) -> np.ndarray:
    """Binary keys; a ``hit_share`` of them copy a stored row's specified trits."""
    keys = rng.integers(0, 2, size=(n, stored.shape[1])).astype(np.int8)
    hits = rng.random(n) < hit_share
    src = stored[rng.integers(0, stored.shape[0], size=n)]
    return np.where(hits[:, None] & (src != X), src, keys)


def arrival_trace(rng: np.random.Generator, keys: np.ndarray, rate: float, seed: int):
    """Open-loop Poisson arrivals at ``rate`` [req/s] carrying ``keys``."""
    from repro.serve import ArrivalTrace
    from repro.tcam.trit import TernaryWord

    n = keys.shape[0]
    return ArrivalTrace(
        process="poisson",
        seed=seed,
        times=np.cumsum(rng.exponential(1.0 / rate, size=n)),
        keys=[TernaryWord(k) for k in keys],
        banks=np.zeros(n, dtype=np.int64),
    )


def _pack(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(care, value) bit planes of trit codes as ``(n, words)`` uint64."""
    pad = (-codes.shape[1]) % 64
    widen = ((0, 0), (0, pad))
    care = np.packbits(np.pad(codes != X, widen), axis=1)
    value = np.packbits(np.pad(codes == 1, widen), axis=1)
    return care.view(np.uint64), value.view(np.uint64)


def first_matches(stored: np.ndarray, keys: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """Index of the first stored row each key matches, or -1."""
    cs, vs = _pack(stored)
    ck, vk = _pack(keys)
    out = np.empty(keys.shape[0], dtype=np.int64)
    for lo in range(0, keys.shape[0], chunk):
        hi = lo + chunk
        miss = (
            (vk[lo:hi, None, :] ^ vs[None]) & ck[lo:hi, None, :] & cs[None]
        ).any(axis=2)
        hit = ~miss
        out[lo:hi] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    return out


def hamming(corpus: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact ``(n_queries, n_entries)`` Hamming distances of binary rows."""
    _, c = _pack(corpus)
    _, q = _pack(queries)
    out = np.empty((queries.shape[0], corpus.shape[0]), dtype=np.int16)
    for i in range(q.shape[0]):
        out[i] = np.bitwise_count(c ^ q[i]).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: inputs from a seed, setup, measured run, checks."""

    name = ""
    #: Program modules the workload imports, before its inputs are drawn.
    modules: tuple[str, ...] = ()
    #: Named sizes; ``default`` is the benchmark, ``tiny`` the self-test.
    sizes: dict[str, dict[str, Any]] = {}

    def make_inputs(self, seed: int, size: str) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict) -> dict:
        raise NotImplementedError

    def run(self, state: dict, inputs: dict) -> Any:
        raise NotImplementedError

    def rearm(self, state: dict, inputs: dict) -> dict:
        """State for the warm pass: the same state, tables already built."""
        return state

    def ops(self, result: Any) -> int:
        raise NotImplementedError

    def check(self, inputs: dict, result: Any) -> tuple[Checks, dict]:
        raise NotImplementedError

    def check_warm(self, inputs: dict, cold: Any, warm: Any) -> Checks:
        """Checks of the warm pass's outputs."""
        return self.check(inputs, warm)[0]


class ServeWorkload(Workload):
    """Open-loop Poisson requests served by one array through ``repro.serve``.

    Measures the serving steady state: dispatch, kernel gather and
    ledger assembly, with the table rows of the keys' ``driven`` values
    built lazily at the start of the run.  No faults, no distance kernel.
    Ops are completed requests.
    """

    name = "serve"
    modules = ("repro.core", "repro.serve", "repro.tcam")
    sizes = {
        "default": {"rows": 128, "cols": 64, "requests": 4_000},
        "tiny": {"rows": 16, "cols": 16, "requests": 400},
    }
    RATE = 2e8  # modelled offered load [req/s]
    STORED_X = 0.2
    KEY_X = 0.1
    HIT_SHARE = 0.5  # keys copied from a stored row, so some requests match
    MAX_BATCH = 64
    MAX_WAIT = 5e-6
    QUEUE = 256

    def make_inputs(self, seed, size):
        from repro.tcam.trit import TernaryWord

        p = self.sizes[size]
        rng = np.random.default_rng([seed, 1])
        rows, cols = p["rows"], p["cols"]
        stored = random_trits(rng, (rows, cols), self.STORED_X)
        keys = keys_near(rng, stored, p["requests"], self.HIT_SHARE)
        keys[rng.random(keys.shape) < self.KEY_X] = X
        return {
            "rows": rows,
            "cols": cols,
            "stored": stored,
            "keys": keys,
            "words": [TernaryWord(r) for r in stored],
            "trace": arrival_trace(rng, keys, self.RATE, seed),
        }

    def setup(self, inputs):
        from repro.core import build_array, get_design
        from repro.serve import ArrayBackend
        from repro.tcam import ArrayGeometry

        array = build_array(
            get_design("fefet2t"), ArrayGeometry(rows=inputs["rows"], cols=inputs["cols"])
        )
        array.load_rows(inputs["words"])
        path = kernel_on(array)
        return {"backend": ArrayBackend(array), "kernel_path": path}

    def run(self, state, inputs):
        from repro import serve

        return serve.run_trace(
            state["backend"],
            inputs["trace"],
            serve.make_policy("adaptive", max_batch=self.MAX_BATCH, max_wait=self.MAX_WAIT),
            admission=serve.AdmissionControl(queue_capacity=self.QUEUE),
            model=serve.ServiceModel(),
        )

    def ops(self, result):
        return result.completed

    def check(self, inputs, report):
        checks = Checks()
        n = len(inputs["trace"])
        checks.expect(
            report.offered == n == report.completed + report.rejected,
            f"conservation: offered {report.offered} of {n}, completed "
            f"{report.completed} + rejected {report.rejected}",
        )
        oracle = memo(inputs, "oracle", lambda: first_matches(inputs["stored"], inputs["keys"]))
        seqs = np.array([r.seq for r in report.records], dtype=np.int64)
        got = np.array([-1 if r.row is None else r.row for r in report.records])
        checks.expect(len(seqs) == report.completed, "one record per completed request")
        checks.expect_all(got == oracle[seqs], "served row != oracle first match")
        modeled = {
            "completed": report.completed,
            "rejected": report.rejected,
            "batches": report.batches,
            "matched": int(np.count_nonzero(got >= 0)),
            "energy_per_request_pJ": report.energy_per_request * 1e12,
            "latency_p99_ns": report.latency_p99 * 1e9,
            "throughput_per_s": report.throughput,
        }
        return checks, modeled


class RetrievalWorkload(Workload):
    """Top-k and three tolerance queries over a clustered binary corpus.

    Measures the distance-kernel matmul and the per-shard Python merge
    over a working set far larger than the other workloads'.  Bulk
    ``load_rows`` and the one table row the binary keys need happen in
    setup.  Ops are queries x 4.
    """

    name = "retrieval"
    modules = ("repro.workloads.retrieval",)
    sizes = {
        "default": {"entries": 10_000, "dims": 64, "queries": 64, "bank_rows": 256},
        "tiny": {"entries": 2_000, "dims": 32, "queries": 16, "bank_rows": 128},
    }
    K = 10
    TOLERANCES = (4, 8, 12)
    CLUSTERS = 200
    SPREAD = 6  # bits flipped between an entry and its cluster centre
    NOISE = 3  # bits flipped between a query and its source entry
    BANKS_PER_CHIP = 16

    @staticmethod
    def _flip(rng, rows: np.ndarray, n_flips: int) -> np.ndarray:
        out = rows.copy()
        cols = np.argsort(rng.random(out.shape), axis=1)[:, :n_flips]
        np.put_along_axis(out, cols, 1 - np.take_along_axis(out, cols, axis=1), axis=1)
        return out

    def make_inputs(self, seed, size):
        p = self.sizes[size]
        rng = np.random.default_rng([seed, 2])
        centres = rng.integers(0, 2, size=(self.CLUSTERS, p["dims"]), dtype=np.int8)
        corpus = self._flip(
            rng, centres[rng.integers(0, self.CLUSTERS, size=p["entries"])], self.SPREAD
        )
        queries = self._flip(
            rng, corpus[rng.integers(0, p["entries"], size=p["queries"])], self.NOISE
        )
        return {"corpus": corpus, "queries": queries, "bank_rows": p["bank_rows"]}

    def setup(self, inputs):
        from repro.workloads import retrieval

        kwargs, path = kernel_kwargs(retrieval.RetrievalIndex)
        index = retrieval.RetrievalIndex(
            inputs["corpus"],
            bank_rows=inputs["bank_rows"],
            banks_per_chip=self.BANKS_PER_CHIP,
            **kwargs,
        )
        return {"index": index, "kernel_path": path}

    def run(self, state, inputs):
        index, queries = state["index"], inputs["queries"]
        rows, dists, stats = index.query_topk(queries, self.K)
        tolerance = [index.query_threshold(queries, t) for t in self.TOLERANCES]
        return {"rows": rows, "dists": dists, "stats": stats, "tolerance": tolerance}

    def ops(self, result):
        return result["rows"].shape[0] * (1 + len(self.TOLERANCES))

    def check(self, inputs, result):
        checks = Checks()
        dist = memo(inputs, "oracle", lambda: hamming(inputs["corpus"], inputs["queries"]))
        n_q = dist.shape[0]
        rows, dists = result["rows"], result["dists"]
        checks.expect(rows.shape == (n_q, self.K), f"top-k shape {rows.shape}")
        modeled = {
            "topk_energy_per_query_pJ": result["stats"].energy_per_query * 1e12,
            "topk_latency_mean_ns": result["stats"].latency_mean * 1e9,
        }
        for q in range(n_q):
            # Oracle order: ascending (distance, row) -- a stable sort.
            kth = np.partition(dist[q], self.K - 1)[self.K - 1]
            near = np.flatnonzero(dist[q] <= kth)
            want = near[np.lexsort((near, dist[q][near]))][: self.K]
            checks.expect(
                np.array_equal(rows[q], want) and np.array_equal(dists[q], dist[q][want]),
                f"query {q}: top-{self.K} rows differ from the Hamming oracle",
            )
        for t, (candidates, stats) in zip(self.TOLERANCES, result["tolerance"]):
            sizes = 0
            for q in range(n_q):
                want = set(np.flatnonzero(dist[q] <= t).tolist())
                sizes += len(candidates[q])
                checks.expect(
                    candidates[q] == want,
                    f"query {q}: tolerance-{t} candidates differ from the oracle",
                )
            modeled[f"tol{t}_energy_per_query_pJ"] = stats.energy_per_query * 1e12
            modeled[f"tol{t}_mean_candidates"] = sizes / n_q
        return checks, modeled


class ClusterChurnWorkload(Workload):
    """Reads interleaved with rule churn on a 4-chip fabric, then wear.

    Every write batch rebuilds the kernel's packed content planes, and
    after ``age_and_repair`` the banks carry fault maps, so the post-wear
    requests leave the kernel for the fault-injected search path.  Ops
    are completed requests plus applied updates.
    """

    name = "cluster_churn"
    modules = ("repro.cluster", "repro.cluster.campaign", "repro.serve")
    sizes = {
        "default": {
            "rules": 1024, "cols": 32, "rounds": 8, "round_requests": 75,
            "updates": 50, "post_requests": 300,
        },
        "tiny": {
            "rules": 64, "cols": 16, "rounds": 2, "round_requests": 40,
            "updates": 10, "post_requests": 80,
        },
    }
    CHIPS = 4
    POLICY = "range"
    SPARE_ROWS = 16
    # Few enough faults per bank that the spares repair every broken row,
    # so every post-wear answer has an oracle; any fault still sends the
    # bank's searches down the fault-injected path.
    WEAR_DENSITY = 0.001
    RATE = 5e7  # modelled offered load [req/s]
    MAX_BATCH = 64
    ADD_SHARE = 0.55
    MIN_PREFIX = 4
    HIT_SHARE = 0.5

    def _prefix(self, rng, n: int, cols: int, lens: np.ndarray) -> np.ndarray:
        words = rng.integers(0, 2, size=(n, cols)).astype(np.int8)
        words[np.arange(cols)[None, :] >= lens[:, None]] = X
        return words

    def make_inputs(self, seed, size):
        from repro.cluster import RuleUpdate
        from repro.tcam.trit import TernaryWord

        p = self.sizes[size]
        rng = np.random.default_rng([seed, 3])
        cols = p["cols"]
        # Route-table shape: longer (more specific) prefixes first.
        lens = np.sort(rng.integers(self.MIN_PREFIX, cols + 1, size=p["rules"]))[::-1]
        rules = self._prefix(rng, p["rules"], cols, lens)
        rounds = []
        next_id, live = p["rules"], list(range(p["rules"]))
        for _ in range(p["rounds"]):
            keys = keys_near(rng, rules, p["round_requests"], self.HIT_SHARE)
            updates = []
            for _ in range(p["updates"]):
                # Withdraw ids assume every earlier add was accepted; a
                # rejected one only turns a later withdrawal into a reject.
                if live and rng.random() >= self.ADD_SHARE:
                    victim = live.pop(int(rng.integers(len(live))))
                    updates.append(RuleUpdate("withdraw", rule_id=victim))
                else:
                    plen = np.array([rng.integers(self.MIN_PREFIX, cols + 1)])
                    rule = TernaryWord(self._prefix(rng, 1, cols, plen)[0])
                    updates.append(RuleUpdate("add", rule=rule))
                    live.append(next_id)
                    next_id += 1
            rounds.append((keys, arrival_trace(rng, keys, self.RATE, seed), updates))
        post_keys = keys_near(rng, rules, p["post_requests"], self.HIT_SHARE)
        return {
            "rule_words": [TernaryWord(r) for r in rules],
            "rounds": rounds,
            "post_keys": post_keys,
            "post_trace": arrival_trace(rng, post_keys, self.RATE, seed),
            "wear_seed": seed,
        }

    def setup(self, inputs):
        from repro.cluster import RuleTable, TCAMFabric

        kwargs, path = kernel_kwargs(TCAMFabric)
        fabric = TCAMFabric(
            RuleTable(tuple(inputs["rule_words"])),
            n_chips=self.CHIPS,
            policy=self.POLICY,
            spare_rows=self.SPARE_ROWS,
            **kwargs,
        )
        return {"fabric": fabric, "kernel_path": path}

    def rearm(self, state, inputs):
        # Churn and wear mutate the fabric: the warm pass needs a fresh one.
        return self.setup(inputs)

    def _serve(self, fabric, trace):
        from repro import serve
        from repro.cluster import FabricBackend
        from repro.cluster.campaign import FabricServiceModel

        return serve.run_trace(
            FabricBackend(fabric),
            trace,
            serve.make_policy("fixed", max_batch=self.MAX_BATCH, max_wait=self.MAX_BATCH / self.RATE),
            admission=serve.AdmissionControl(queue_capacity=4 * self.MAX_BATCH),
            model=FabricServiceModel(),
        )

    def run(self, state, inputs):
        from repro import cluster

        fabric = state["fabric"]
        engine = cluster.UpdateEngine(fabric)
        rounds = []
        for _keys, trace, updates in inputs["rounds"]:
            report = self._serve(fabric, trace)
            # The live rule map the round was served against (the oracle's input).
            live = dict(fabric.rule_words)
            rounds.append((report, live, engine.apply(updates)))
        wear = cluster.age_and_repair(
            fabric, density=self.WEAR_DENSITY, seed=inputs["wear_seed"], mode="wear"
        )
        post = self._serve(fabric, inputs["post_trace"])
        return {
            "rounds": rounds,
            "wear": wear,
            "post": post,
            "live": dict(fabric.rule_words),
            "probes": fabric.probes_issued,
            "queries": fabric.queries_offered,
        }

    def ops(self, result):
        served = sum(r.completed for r, _, _ in result["rounds"]) + result["post"].completed
        return served + sum(c.adds + c.withdrawals for _, _, c in result["rounds"])

    @staticmethod
    def _winners(live: dict, keys: np.ndarray) -> np.ndarray:
        gids = np.array(sorted(live), dtype=np.int64)
        codes = np.stack([live[g].as_array() for g in gids])
        first = first_matches(codes, keys)
        return np.where(first >= 0, gids[np.maximum(first, 0)], -1)

    def _check_report(self, checks, report, keys, winners, skip=None):
        n = keys.shape[0]
        checks.expect(
            report.offered == n == report.completed + report.rejected,
            f"conservation: offered {report.offered} of {n}",
        )
        seqs = np.array([r.seq for r in report.records], dtype=np.int64)
        got = np.array([-1 if r.row is None else r.row for r in report.records])
        keep = np.ones(seqs.size, dtype=bool) if skip is None else ~skip[seqs]
        checks.expect_all(got[keep] == winners[seqs][keep], "fabric winner != oracle")

    def check(self, inputs, result):
        checks = Checks()
        energy, served = 0.0, 0
        for (keys, _trace, updates), (report, live, churn) in zip(
            inputs["rounds"], result["rounds"]
        ):
            self._check_report(checks, report, keys, self._winners(live, keys))
            checks.expect(
                churn.adds + churn.withdrawals + churn.rejected_adds
                + churn.rejected_withdrawals == len(updates),
                "every update is applied or rejected",
            )
            energy += report.energy_total
            served += report.completed
        wear, post = result["wear"], result["post"]
        winners = self._winners(result["live"], inputs["post_keys"])
        # A key is checked after wear only if no degraded (unrepaired)
        # rule can change its answer: none ranks at or above its winner.
        degraded = np.array(sorted(wear.degraded_rules), dtype=np.int64)
        rank = np.where(winners >= 0, winners, np.iinfo(np.int64).max)
        skip = (
            (degraded[None, :] <= rank[:, None]).any(axis=1)
            if degraded.size else np.zeros(rank.size, dtype=bool)
        )
        self._check_report(checks, post, inputs["post_keys"], winners, skip)
        rounds = result["rounds"]
        modeled = {
            "round_energy_per_request_pJ": energy / max(served, 1) * 1e12,
            "post_energy_per_request_pJ": post.energy_per_request * 1e12,
            "post_latency_p99_ns": post.latency_p99 * 1e9,
            "churn_energy_pJ": sum(c.energy.total for _, _, c in rounds) * 1e12,
            "adds": sum(c.adds for _, _, c in rounds),
            "withdrawals": sum(c.withdrawals for _, _, c in rounds),
            "rejected_updates": sum(
                c.rejected_adds + c.rejected_withdrawals for _, _, c in rounds
            ),
            "faults_injected": wear.faults_injected,
            "repaired_rows": wear.repaired_rows,
            "availability": wear.availability,
            "probes_per_query": result["probes"] / max(result["queries"], 1),
        }
        return checks, modeled


class DseWorkload(Workload):
    """``run_dse`` over every registered cell, both sensing styles.

    Every point compiles its own tables, and every registered cell and
    estimator runs.  No serve, no cluster, no faults.  Ops are points.
    """

    name = "dse"
    modules = ("repro.analysis.dse",)
    sizes = {
        "default": {"rows": (32, 64), "cols": (16,), "vdds": (None,), "searches": 32},
        "tiny": {"rows": (16,), "cols": (16,), "vdds": (None,), "searches": 4},
    }
    #: Points re-evaluated on the scalar reference path as the oracle,
    #: drawn by seed from the smallest geometry.
    ORACLE_POINTS = 2

    def make_inputs(self, seed, size):
        return {"seed": seed, **self.sizes[size]}

    def setup(self, inputs):
        from repro.analysis import dse

        space = dse.default_space(rows=inputs["rows"], cols=inputs["cols"], vdds=inputs["vdds"])
        kwargs, path = kernel_kwargs(dse.run_dse)
        return {"space": space, "kwargs": kwargs, "kernel_path": path}

    def run(self, state, inputs):
        from repro.analysis import dse

        return dse.run_dse(
            state["space"], searches=inputs["searches"], seed=inputs["seed"], **state["kwargs"]
        )

    def ops(self, result):
        return len(result.points)

    def check(self, inputs, result):
        from repro.analysis import dse

        checks = Checks()
        points = result.points
        for p in points:
            label = p["label"]
            checks.expect(p["energy_per_search"] > 0.0, f"{label}: energy <= 0")
            checks.expect(p["search_delay"] > 0.0, f"{label}: delay <= 0")
            checks.expect(p["area_f2"] > 0.0, f"{label}: area <= 0")
            checks.expect(0.0 < p["accuracy"] <= 1.0, f"{label}: accuracy out of (0, 1]")
            checks.expect(p["functional_errors"] >= 0, f"{label}: negative error count")
        frontier = [points[i] for i in result.frontier_indices]
        checks.expect(
            all(p["functional_errors"] == 0 for p in frontier), "frontier point with errors"
        )
        # Non-domination, recomputed here rather than trusted.
        for a in frontier:
            dominated = any(
                all(b[m] <= a[m] for m in dse.MINIMIZE)
                and all(b[m] >= a[m] for m in dse.MAXIMIZE)
                and (any(b[m] < a[m] for m in dse.MINIMIZE) or any(b[m] > a[m] for m in dse.MAXIMIZE))
                for b in points
                if b["functional_errors"] == 0
            )
            checks.expect(not dominated, f"frontier point {a['label']} is dominated")
        # Kernel == scalar reference, bit for bit, on a few small points.
        space = dse.default_space(rows=inputs["rows"], cols=inputs["cols"], vdds=inputs["vdds"])
        small = [
            i for i, p in enumerate(space)
            if p.rows == min(inputs["rows"]) and p.cols == min(inputs["cols"])
        ]
        rng = np.random.default_rng([inputs["seed"], 5])
        picked = rng.choice(small, size=min(self.ORACLE_POINTS, len(small)), replace=False)
        refs = memo(inputs, "oracle", lambda: {
            i: dse.evaluate_point(space[i], searches=inputs["searches"], seed=inputs["seed"])
            for i in picked
        })
        for i, ref in refs.items():
            checks.expect(ref == points[i], f"{points[i]['label']}: kernel != scalar reference")
        modeled = {
            "points": len(points),
            "frontier": len(frontier),
            "functional_errors": sum(p["functional_errors"] for p in points),
            "sum_energy_per_bit_fJ": sum(p["energy_per_bit"] for p in points) * 1e15,
            "sum_search_delay_ns": sum(p["search_delay"] for p in points) * 1e9,
        }
        return checks, modeled

    def check_warm(self, inputs, cold, warm):
        # Every point is rebuilt from its seed, so the warm pass repeats
        # the cold one exactly.
        checks = Checks()
        checks.expect(warm.points == cold.points, "warm DSE points differ from cold")
        return checks


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (ServeWorkload(), RetrievalWorkload(), ClusterChurnWorkload(), DseWorkload())
}
