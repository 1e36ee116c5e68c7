"""Engine dispatch semantics: policy edge cases and conservation.

These cover the satellite checklist explicitly: ``max_wait=0`` means
immediate dispatch, a batch of one is served correctly, a graceful
shutdown drains the queue, and backpressure rejection accounting is
exact (``offered == completed + rejected``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import ServeError
from repro.serve import (
    AdaptivePolicy,
    AdmissionControl,
    ArrayBackend,
    FixedPolicy,
    ServeEngine,
    ServiceModel,
    make_policy,
    no_batching,
    poisson_trace,
    run_trace,
)
from repro.tcam import ArrayGeometry, random_word

COLS = 16


@pytest.fixture
def backend():
    array = build_array(get_design("fefet2t"), ArrayGeometry(rows=8, cols=COLS))
    rng = np.random.default_rng(42)
    array.load([random_word(COLS, rng) for _ in range(8)])
    return ArrayBackend(array)


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_word(COLS, rng) for _ in range(n)]


class TestDispatchSemantics:
    def test_max_wait_zero_dispatches_immediately(self, backend):
        """With max_wait=0 and an idle port, every request leaves alone:
        each arrival first flushes the previous one as a batch of 1."""
        engine = ServeEngine(backend, FixedPolicy(max_batch=64, max_wait=0.0))
        keys = _keys(4)
        records = []
        for seq, t in enumerate([0.0, 1.0, 2.0, 3.0]):
            records.extend(engine.offer(seq, t, keys[seq], 0))
        records.extend(engine.drain())
        assert [r.batch_size for r in records] == [1, 1, 1, 1]
        assert [r.dispatch for r in records] == [0.0, 1.0, 2.0, 3.0]
        assert all(r.queue_wait == 0.0 for r in records)

    def test_max_wait_zero_still_coalesces_behind_busy_port(self, backend):
        """Requests that pile up while the port is busy leave together
        even at max_wait=0 -- the classic baseline-batching behavior."""
        model = ServiceModel(t_overhead=10.0, e_overhead=0.0)
        engine = ServeEngine(backend, FixedPolicy(max_batch=64, max_wait=0.0), model=model)
        keys = _keys(4)
        records = []
        for seq, t in enumerate([0.0, 1.0, 2.0, 3.0]):
            records.extend(engine.offer(seq, t, keys[seq], 0))
        records.extend(engine.drain())
        # First request occupies the port ~10 s; the other three queued
        # behind it and dispatched as one batch when it freed up.
        assert records[0].batch_size == 1
        assert [r.batch_size for r in records[1:]] == [3, 3, 3]
        assert records[1].dispatch == pytest.approx(records[0].finish)

    def test_batch_of_one(self, backend):
        """A single offered request is served correctly on drain."""
        engine = ServeEngine(backend, make_policy("fixed", max_batch=8, max_wait=5.0))
        [key] = _keys(1)
        assert engine.offer(0, 2.0, key, 0) == []
        records = engine.drain()
        assert len(records) == 1
        rec = records[0]
        assert rec.seq == 0
        assert rec.batch_size == 1
        assert rec.dispatch == pytest.approx(7.0)  # arrival + frozen wait
        # latency = frozen wait + batch service time
        assert rec.latency == pytest.approx(5.0 + (rec.finish - rec.dispatch))
        engine.check_conservation()

    def test_full_batch_dispatches_at_fill_time(self, backend):
        """Hitting max_batch closes the window at the filling arrival,
        not at the head deadline."""
        engine = ServeEngine(backend, FixedPolicy(max_batch=3, max_wait=100.0))
        keys = _keys(4)
        records = []
        for seq, t in enumerate([0.0, 1.0, 2.0, 50.0]):
            records.extend(engine.offer(seq, t, keys[seq], 0))
        # The batch of 3 filled at t=2 and must have left before t=50.
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[0].dispatch == pytest.approx(2.0)
        records.extend(engine.drain())
        assert [r.seq for r in records] == [0, 1, 2, 3]

    def test_drain_flushes_partial_batches(self, backend):
        """Graceful shutdown: a half-full window dispatches on drain."""
        engine = ServeEngine(backend, FixedPolicy(max_batch=100, max_wait=1e9))
        keys = _keys(5)
        for seq in range(5):
            engine.offer(seq, float(seq), keys[seq], 0)
        assert engine.queued == 5
        records = engine.drain()
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]
        assert records[0].batch_size == 5
        assert engine.queued == 0
        engine.check_conservation()

    def test_requests_must_arrive_in_seq_order(self, backend):
        engine = ServeEngine(backend, no_batching())
        [key] = _keys(1)
        with pytest.raises(ServeError, match="trace order"):
            engine.offer(3, 0.0, key, 0)


class TestBackpressure:
    def test_rejection_accounting_is_exact(self, backend):
        """offered == completed + rejected, request by request."""
        trace = poisson_trace(400, rate=50e6, cols=COLS, seed=7)
        report = run_trace(
            backend,
            trace,
            no_batching(),
            admission=AdmissionControl(queue_capacity=4),
            model=ServiceModel(t_overhead=1e-6, e_overhead=0.0),
        )
        assert report.offered == 400
        assert report.rejected > 0
        assert report.offered == report.completed + report.rejected
        # Every request is accounted once: the served seqs and the
        # rejected seqs partition the trace exactly.
        served = {r.seq for r in report.records}
        shed = set(report.rejected_seqs)
        assert served.isdisjoint(shed)
        assert served | shed == set(range(400))

    def test_unbounded_queue_rejects_nothing(self, backend):
        trace = poisson_trace(200, rate=50e6, cols=COLS, seed=7)
        report = run_trace(
            backend, trace, no_batching(), admission=AdmissionControl(None)
        )
        assert report.rejected == 0
        assert report.completed == 200

    def test_conservation_check_requires_drained_queue(self, backend):
        engine = ServeEngine(backend, FixedPolicy(max_batch=4, max_wait=1e9))
        [key] = _keys(1)
        engine.offer(0, 0.0, key, 0)
        with pytest.raises(ServeError, match="drained"):
            engine.check_conservation()

    def test_queue_capacity_validation(self):
        with pytest.raises(ServeError):
            AdmissionControl(queue_capacity=0)


class TestPolicies:
    def test_policy_validation(self):
        with pytest.raises(ServeError):
            FixedPolicy(max_batch=0, max_wait=1.0)
        with pytest.raises(ServeError):
            FixedPolicy(max_batch=4, max_wait=-1.0)
        with pytest.raises(ServeError, match="max_wait must be non-negative"):
            AdaptivePolicy(max_batch=4, max_wait=-1e-6)
        with pytest.raises(ServeError):
            make_policy("bogus")

    def test_adaptive_budget_tracks_rate(self):
        pol = AdaptivePolicy(max_batch=8, max_wait=1e3)
        assert pol.wait_budget() == 1e3  # nothing observed yet
        pol.on_arrival(0.0)
        pol.on_arrival(2.0)  # gap 2 -> budget (8-1)*2
        assert pol.wait_budget() == pytest.approx(14.0)
        pol.on_arrival(2.5)  # EWMA: 2 + 0.2 * (0.5 - 2) = 1.7
        assert pol.wait_budget() == pytest.approx(7 * 1.7)

    def test_adaptive_budget_clamped(self):
        pol = AdaptivePolicy(max_batch=8, max_wait=2.0)
        pol.on_arrival(0.0)
        pol.on_arrival(100.0)
        assert pol.wait_budget() == 2.0
        for _ in range(200):  # zero gaps pull the EWMA toward the 0 floor
            pol.on_arrival(100.0)
        assert 0.0 <= pol.wait_budget() < 1e-12
        assert pol.describe()["min_wait"] == 0.0
        assert pol.describe()["alpha"] == 0.2

    def test_no_batching_is_fixed_one_zero(self):
        pol = no_batching()
        assert pol.max_batch == 1
        assert pol.max_wait == 0.0


class TestServiceModel:
    def test_energy_overhead_amortized_exactly(self, backend):
        """N requests in one batch each carry e_overhead/N; the batch
        total carries e_overhead exactly once."""
        model = ServiceModel(t_overhead=0.0, e_overhead=9e-12)
        engine = ServeEngine(
            backend, FixedPolicy(max_batch=3, max_wait=1e9), model=model
        )
        keys = _keys(3)
        for seq in range(3):
            engine.offer(seq, float(seq), keys[seq], 0)
        records = engine.drain()
        solo = ServeEngine(backend, no_batching(), model=model)
        solo_rec = solo.offer(0, 0.0, keys[0], 0) + solo.drain()
        # Same physics energy; the batched request carries a third of
        # the dispatch overhead, the solo one carries all of it.
        assert records[0].energy == pytest.approx(
            solo_rec[0].energy - 9e-12 + 3e-12
        )

    def test_model_validation(self):
        with pytest.raises(ServeError):
            ServiceModel(t_overhead=-1.0)
