"""Asyncio front door: reorder buffer, bit-reproducibility, reports."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.core import build_array, get_design
from repro.errors import ServeError
from repro.serve import (
    AdmissionControl,
    ArrayBackend,
    ChipBackend,
    ServeEngine,
    ServiceModel,
    TCAMService,
    make_policy,
    mmpp_trace,
    no_batching,
    poisson_trace,
    run_trace,
    serve_trace,
)
from repro.tcam import ArrayGeometry, random_word
from repro.tcam.chip import TCAMChip

COLS = 16


def _backend() -> ArrayBackend:
    array = build_array(get_design("fefet2t"), ArrayGeometry(rows=8, cols=COLS))
    rng = np.random.default_rng(42)
    array.load([random_word(COLS, rng) for _ in range(8)])
    return ArrayBackend(array)


def _chip_backend() -> ChipBackend:
    def bank():
        return build_array(get_design("fefet2t"), ArrayGeometry(rows=8, cols=COLS))

    chip = TCAMChip(bank, n_banks=2)
    rng = np.random.default_rng(42)
    chip.load([random_word(COLS, rng) for _ in range(16)])
    return ChipBackend(chip)


class TestBitReproducibility:
    def test_async_matches_sync_exactly(self):
        """Any asyncio interleaving produces the same records as the
        plain synchronous loop -- bit for bit, including energy."""
        trace = poisson_trace(150, rate=2e6, cols=COLS, seed=1)
        policy = lambda: make_policy("fixed", max_batch=16, max_wait=10e-6)  # noqa: E731
        sync = run_trace(_backend(), trace, policy())
        conc = asyncio.run(serve_trace(_backend(), trace, policy()))
        assert sync.to_dict(include_records=True) == conc.to_dict(include_records=True)

    def test_async_matches_sync_with_backpressure(self):
        trace = mmpp_trace(200, rate=20e6, cols=COLS, seed=5)
        adm = AdmissionControl(queue_capacity=8)
        sync = run_trace(_backend(), trace, no_batching(), admission=adm)
        conc = asyncio.run(
            serve_trace(
                _backend(),
                trace,
                no_batching(),
                admission=AdmissionControl(queue_capacity=8),
            )
        )
        assert sync.rejected == conc.rejected > 0
        assert sync.to_dict(include_records=True) == conc.to_dict(include_records=True)

    def test_repeated_runs_identical(self):
        trace = mmpp_trace(100, rate=3e6, cols=COLS, seed=9)
        a = run_trace(_backend(), trace, make_policy("adaptive", max_batch=32))
        b = run_trace(_backend(), trace, make_policy("adaptive", max_batch=32))
        assert a.to_dict(include_records=True) == b.to_dict(include_records=True)

    def test_chip_backend_routes_banks(self):
        trace = poisson_trace(60, rate=2e6, cols=COLS, seed=4, n_banks=2)
        report = run_trace(_chip_backend(), trace, make_policy("fixed"))
        assert report.completed == 60
        report.records  # served in dispatch order with global rows
        assert {r.seq for r in report.records} == set(range(60))


class TestReorderBuffer:
    def test_out_of_order_submission_is_reordered(self):
        """Submitting seqs in scrambled task order must not disturb the
        engine's trace order (it would raise otherwise)."""

        async def scenario():
            engine = ServeEngine(_backend(), no_batching())
            service = TCAMService(engine)
            rng = np.random.default_rng(0)
            keys = [random_word(COLS, rng) for _ in range(20)]
            order = list(reversed(range(20)))  # worst case: fully reversed
            tasks = [
                asyncio.ensure_future(service.submit(s, float(s), keys[s], 0))
                for s in order
            ]
            while service._next_seq < 20:
                await asyncio.sleep(0)
            await service.close()
            results = await asyncio.gather(*tasks)
            return results

        results = asyncio.run(scenario())
        # gather order follows the scrambled submission order.
        assert [r.seq for r in results] == list(reversed(range(20)))
        assert all(r is not None for r in results)

    def test_duplicate_seq_rejected(self):
        async def scenario():
            service = TCAMService(ServeEngine(_backend(), no_batching()))
            rng = np.random.default_rng(0)
            key = random_word(COLS, rng)
            task = asyncio.ensure_future(service.submit(5, 0.0, key, 0))
            await asyncio.sleep(0)
            with pytest.raises(ServeError, match="duplicate"):
                await service.submit(5, 0.0, key, 0)
            task.cancel()

        asyncio.run(scenario())

    def test_submit_after_close_raises(self):
        async def scenario():
            service = TCAMService(ServeEngine(_backend(), no_batching()))
            await service.close()
            rng = np.random.default_rng(0)
            with pytest.raises(ServeError, match="closed"):
                await service.submit(0, 0.0, random_word(COLS, rng), 0)

        asyncio.run(scenario())

    def test_rejected_submitter_receives_none(self):
        async def scenario():
            engine = ServeEngine(
                _backend(),
                no_batching(),
                admission=AdmissionControl(queue_capacity=1),
                model=ServiceModel(t_overhead=1e3),  # port busy forever
            )
            service = TCAMService(engine)
            rng = np.random.default_rng(0)
            keys = [random_word(COLS, rng) for _ in range(3)]
            tasks = [
                asyncio.ensure_future(service.submit(s, float(s) * 1e-9, keys[s], 0))
                for s in range(3)
            ]
            while service._next_seq < 3:
                await asyncio.sleep(0)
            await service.close()
            return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        # Seq 0 grabs the port, seq 1 fills the 1-deep queue, seq 2 shed.
        assert results[0] is not None and results[1] is not None
        assert results[2] is None


class TestReportAndObs:
    def test_report_schema_and_conservation(self):
        trace = poisson_trace(80, rate=2e6, cols=COLS, seed=2)
        report = run_trace(_backend(), trace, make_policy("fixed"))
        d = report.to_dict()
        assert d["schema_version"] == 1
        assert d["offered"] == d["completed"] + d["rejected"] == 80
        assert d["throughput"] > 0.0
        assert d["latency_p50"] <= d["latency_p95"] <= d["latency_p99"]
        assert d["energy_per_request"] > 0.0
        assert "records" not in d
        assert "records" in report.to_dict(include_records=True)

    def test_serving_books_obs_metrics_and_spans(self):
        trace = poisson_trace(40, rate=2e6, cols=COLS, seed=6)
        with obs.observe() as session:
            report = run_trace(_backend(), trace, make_policy("fixed", max_batch=8))
        snap = session.metrics.snapshot()
        assert snap["serve.offered"] == 40.0
        assert snap["serve.admitted"] == 40.0
        assert snap["serve.completed"] == 40.0
        assert snap["serve.batches"] == float(report.batches)
        lat = snap["serve.latency"]
        assert lat["count"] == 40
        assert lat["p99"] == pytest.approx(report.latency_p99)
        batch_spans = [s for s in session.spans if s.name == "serve.batch"]
        assert len(batch_spans) == report.batches
        # Span energy sums to the run's energy total exactly.
        total = sum(s.total_energy().total for s in batch_spans)
        assert total == pytest.approx(report.energy_total, rel=1e-12)

    def test_empty_trace_report(self):
        trace = poisson_trace(1, rate=1e6, cols=COLS, seed=0)
        # Reject everything via a zero-capacity-equivalent: port blocked
        # and queue of 1 already full after the first arrival; simplest
        # empty-records case is a drained engine that served nothing.
        engine = ServeEngine(_backend(), no_batching())
        assert engine.drain() == []
        engine.check_conservation()
        assert trace.offered_rate == 0.0  # single arrival has no span
