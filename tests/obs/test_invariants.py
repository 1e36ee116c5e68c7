"""End-to-end observability invariants.

The load-bearing property of the whole layer: for every traced search,
the span tree's recursively merged energy reproduces the returned
outcome's :class:`EnergyLedger` *exactly* -- same components, same
floats, same total -- because instrumentation only ever slices and
re-merges the outcome's own ledger in insertion order.  And with no
session active, the instrumented code must be a bit-for-bit no-op.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import build_array, get_design
from repro.tcam import ArrayGeometry, BaseOutcome, TCAMArray, TCAMChip, reference
from repro.tcam.bank import HierarchicalBank, SegmentedBank
from repro.tcam.cells import FeFET2TCell
from repro.tcam.chip import GatingPolicy
from repro.tcam.trit import random_word


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test here must leave observability globally disabled."""
    assert not obs.is_enabled()
    yield
    assert not obs.is_enabled()


def _loaded_array(rng, rows=16, cols=16, design="fefet2t"):
    array = build_array(get_design(design), ArrayGeometry(rows, cols))
    array.load([random_word(cols, rng, x_fraction=0.2) for _ in range(rows)])
    return array


class TestSpanSumEqualsOutcomeLedger:
    def test_scalar_search_exact(self, rng):
        array = _loaded_array(rng)
        with obs.observe() as sess:
            out = array.search(random_word(16, rng))
        (root,) = sess.spans
        assert root.name == "array.search"
        assert root.total_energy().as_dict() == out.energy.as_dict()
        assert root.total_energy().total == out.energy.total

    def test_scalar_search_current_race_exact(self, rng):
        array = _loaded_array(rng, design="fefet_cr")
        with obs.observe() as sess:
            out = array.search(random_word(16, rng))
        (root,) = sess.spans
        assert root.total_energy().total == out.energy.total

    def test_batched_search_merged_ledger_exact(self, rng):
        seed = int(rng.integers(2**31))
        array = _loaded_array(np.random.default_rng(seed))
        scalar_array = _loaded_array(np.random.default_rng(seed))
        keys = [random_word(16, rng) for _ in range(12)]
        with obs.observe() as sess:
            outcomes = array.search_batch(keys)
        (root,) = sess.spans
        assert root.name == "array.search_batch"
        from repro.energy.accounting import EnergyLedger

        merged = EnergyLedger.sum(o.energy for o in outcomes)
        scalar = EnergyLedger.sum(reference.search(scalar_array, k).energy for k in keys)
        assert merged.as_dict() == scalar.as_dict()
        assert root.total_energy().as_dict() == merged.as_dict()
        assert root.total_energy().total == pytest.approx(
            sum(o.energy.total for o in outcomes), rel=1e-12
        )

    def test_segmented_search_exact(self, rng):
        bank = SegmentedBank(FeFET2TCell(), ArrayGeometry(16, 16), probe_cols=4)
        bank.load([random_word(16, rng) for _ in range(16)])
        with obs.observe() as sess:
            out = bank.search(random_word(16, rng))
        (root,) = sess.spans
        assert root.name == "bank.search"
        assert root.total_energy().as_dict() == out.energy.as_dict()
        assert root.total_energy().total == out.energy.total

    def test_segmented_stage_spans_nest(self, rng):
        bank = SegmentedBank(FeFET2TCell(), ArrayGeometry(16, 16), probe_cols=4)
        bank.load([random_word(16, rng) for _ in range(16)])
        with obs.observe() as sess:
            bank.search(random_word(16, rng))
        names = [n.name for _, n in sess.spans[0].walk()]
        assert "bank.stage1" in names
        assert "array.search" in names

    def test_hierarchical_search_exact(self, rng):
        bank = HierarchicalBank(
            FeFET2TCell(), ArrayGeometry(16, 16), segment_cols=[4, 4, 8]
        )
        bank.load([random_word(16, rng) for _ in range(16)])
        with obs.observe() as sess:
            out = bank.search(random_word(16, rng))
        (root,) = sess.spans
        assert root.total_energy().as_dict() == out.energy.as_dict()
        assert root.total_energy().total == out.energy.total

    def test_chip_search_exact_including_wake_and_idle(self, rng):
        cell = FeFET2TCell()
        geo = ArrayGeometry(16, 16)
        chip = TCAMChip(
            lambda: TCAMArray(cell, geo),
            n_banks=2,
            gating=GatingPolicy(gate_idle_banks=True),
        )
        chip.load([random_word(16, rng) for _ in range(8)])
        with obs.observe() as sess:
            out = chip.search(random_word(16, rng), bank=0, idle_time=1e-6)
        root = sess.spans[-1]
        assert root.name == "chip.search"
        # The wake/idle overhead is the chip span's own energy; the rest
        # arrives through the nested array span.
        assert root.energy.total > 0.0
        assert root.total_energy().as_dict() == out.energy.as_dict()
        assert root.total_energy().total == out.energy.total

    def test_nearest_match_exact(self, rng):
        array = _loaded_array(rng)
        with obs.observe() as sess:
            out = array.nearest_match(random_word(16, rng))
        (root,) = sess.spans
        assert root.name == "array.nearest_match"
        assert root.total_energy().as_dict() == out.energy.as_dict()
        assert root.total_energy().total == out.energy.total

    def test_span_delay_matches_outcome(self, rng):
        array = _loaded_array(rng)
        with obs.observe() as sess:
            out = array.search(random_word(16, rng))
        assert sess.spans[0].delay == out.search_delay


class TestMetricsAgreeWithInternals:
    def test_kernel_counters_match_engine(self, rng):
        array = _loaded_array(rng)
        keys = [random_word(16, rng) for _ in range(10)]
        with obs.observe() as sess:
            array.search_batch(keys)
            array.nearest_match_batch(keys)
        snap = sess.metrics.snapshot()
        assert snap["kernels.table_hits"] == array.kernel.table_hits
        assert snap["kernels.rk4_fallbacks"] == array.kernel.rk4_fallbacks
        assert snap["kernels.table_hits"] > 0

    def test_kernel_counters_only_deltas_inside_session(self, rng):
        array = _loaded_array(rng)
        keys = [random_word(16, rng) for _ in range(10)]
        array.search_batch(keys)  # unobserved traffic
        before = array.kernel.table_hits
        with obs.observe() as sess:
            array.search_batch(keys)
        snap = sess.metrics.snapshot()
        assert snap["kernels.table_hits"] == array.kernel.table_hits - before

    def test_search_and_energy_counters(self, rng):
        array = _loaded_array(rng)
        keys = [random_word(16, rng) for _ in range(6)]
        with obs.observe() as sess:
            outcomes = array.search_batch(keys)
        snap = sess.metrics.snapshot()
        assert snap["tcam.searches"] == 6.0
        assert snap["tcam.batch_size"]["count"] == 1
        assert snap["tcam.batch_size"]["sum"] == 6.0
        total_joules = sum(
            v for k, v in snap.items() if k.startswith("energy.")
        )
        assert total_joules == pytest.approx(
            sum(o.energy.total for o in outcomes), rel=1e-12
        )

    def test_rk4_metrics_present(self, rng):
        array = _loaded_array(rng)
        with obs.observe() as sess:
            array.search_batch([random_word(16, rng) for _ in range(4)])
        snap = sess.metrics.snapshot()
        assert snap["rk4.batched_integrations"] >= 1.0
        assert snap["rk4.steps"] > 0.0

    def test_write_counters(self, rng):
        array = TCAMArray(FeFET2TCell(), ArrayGeometry(8, 8))
        with obs.observe() as sess:
            array.write(0, random_word(8, rng))
        snap = sess.metrics.snapshot()
        assert snap["tcam.writes"] == 1.0


class TestDisabledPathIsFree:
    def test_no_session_no_spans_registered(self, rng):
        array = _loaded_array(rng)
        array.search(random_word(16, rng))
        assert obs.session() is None
        assert obs.metrics() is None

    def test_outcomes_identical_with_and_without_observation(self, rng):
        state = rng.bit_generator.state
        plain = _loaded_array(rng)
        rng.bit_generator.state = state
        observed = _loaded_array(rng)
        key_rng = np.random.default_rng(7)
        keys = [random_word(16, key_rng) for _ in range(8)]
        plain_out = plain.search_batch(keys)
        with obs.observe():
            observed_out = observed.search_batch(keys)
        for a, b in zip(plain_out, observed_out):
            assert np.array_equal(a.match_mask, b.match_mask)
            assert a.first_match == b.first_match
            assert a.energy.as_dict() == b.energy.as_dict()
            assert a.search_delay == b.search_delay

    def test_outcome_ledgers_carry_no_extra_entries_when_traced(self, rng):
        """Tracing reads the outcome ledger; it must never append to it."""
        array = _loaded_array(rng)
        key = random_word(16, rng)
        with obs.observe():
            traced = array.search(key)
        untraced = array.search(key)
        assert traced.energy.components() == untraced.energy.components()

    def test_sessions_nest_and_restore(self):
        with obs.observe() as outer:
            with obs.observe() as inner:
                assert obs.session() is inner
            assert obs.session() is outer
        assert obs.session() is None

    def test_enable_disable_round_trip(self):
        sess = obs.enable()
        assert obs.is_enabled() and obs.session() is sess
        obs.disable()
        assert not obs.is_enabled()


class TestOutcomeApiUniformity:
    def _all_outcomes(self, rng):
        array = _loaded_array(rng)
        scalar = array.search(random_word(16, rng))
        nearest = array.nearest_match(random_word(16, rng))
        bank = SegmentedBank(FeFET2TCell(), ArrayGeometry(16, 16), probe_cols=4)
        bank.load([random_word(16, rng) for _ in range(16)])
        segmented = bank.search(random_word(16, rng))
        chip = TCAMChip(lambda: TCAMArray(FeFET2TCell(), ArrayGeometry(16, 16)), n_banks=2)
        chip.load([random_word(16, rng) for _ in range(8)])
        chipped = chip.search(random_word(16, rng), bank=0)
        return [scalar, nearest, segmented, chipped]

    def test_all_outcomes_share_base(self, rng):
        for out in self._all_outcomes(rng):
            assert isinstance(out, BaseOutcome)

    def test_to_dict_canonical_keys_lead(self, rng):
        canonical = [
            "schema_version", "type", "match_mask", "first_match",
            "energy", "energy_total", "search_delay", "cycle_time",
        ]
        for out in self._all_outcomes(rng):
            d = out.to_dict()
            assert list(d)[: len(canonical)] == canonical
            assert d["schema_version"] == 1
            assert d["type"] == type(out).__name__
            assert d["energy_total"] == out.energy.total
            assert isinstance(d["energy"], dict)

    def test_to_dict_json_serializable(self, rng):
        import json

        for out in self._all_outcomes(rng):
            json.dumps(out.to_dict())

    def test_chip_outcome_delegates(self, rng):
        chip = TCAMChip(lambda: TCAMArray(FeFET2TCell(), ArrayGeometry(16, 16)), n_banks=2)
        chip.load([random_word(16, rng) for _ in range(8)])
        out = chip.search(random_word(16, rng), bank=1)
        assert out.search_delay == out.latency
        assert out.first_match == out.row
        assert out.cycle_time == out.outcome.cycle_time
        assert np.array_equal(out.match_mask, out.outcome.match_mask)
