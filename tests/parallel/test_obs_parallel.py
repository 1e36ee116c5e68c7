"""Observability invariants on the in-process chip tree and under
process parallelism.

The span-sum invariant must hold in both settings:

* **array level** -- each bank's ``array.search_batch`` span, a direct
  child of ``chip.search_batch``, carries exactly the summed ledgers of
  that bank's per-key scalar searches.
* **chip level** -- the root's own energy (wake + idle leakage) and each
  bank's subtree are individually float-exact; the full-tree total
  matches the merged outcome ledgers up to floating-point reassociation
  only (the tree groups joules per bank, the outcome merge per key), so
  equality is asserted per component at 1e-12 relative tolerance with an
  identical component set.
* **worker fan-out** -- worker sessions are grafted back into the parent
  span tree (one ``<prefix>.chunk[i]`` child per chunk) and own no
  energy; worker metric registries merge in chunk order, so integer
  counters match serial exactly and energy counters to 1e-12 (same
  reassociation caveat).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.analysis import run_margin_mc
from repro.analysis import montecarlo as mc_mod
from repro.analysis.faultcampaign import run_fault_campaign
from repro.core import build_array, get_design
from repro.devices.variability import NOMINAL_VARIATION
from repro.energy.accounting import EnergyLedger
from repro.tcam import ArrayGeometry
from repro.tcam.chip import TCAMChip
from repro.tcam.trit import random_word


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert not obs.is_enabled()
    yield
    assert not obs.is_enabled()


def _loaded_chip():
    geo = ArrayGeometry(rows=16, cols=32)
    chip = TCAMChip(lambda: build_array(get_design("fefet2t"), geo), n_banks=2)
    chip.load(
        [random_word(geo.cols, np.random.default_rng(2), x_fraction=0.2) for _ in range(32)]
    )
    return chip


#: A small fault campaign on the kernel batch path: its trials fan out
#: through ``scatter_gather`` and every search books energy into spans.
FAULT_CAMPAIGN = dict(
    design="fefet2t",
    rows=12,
    cols=12,
    densities=(0.0, 0.05),
    n_spare=2,
    n_trials=2,
    n_keys=6,
    seed=424242,
)


class TestArrayInvariantUnderWorkers:
    """Array batch spans nested under the chip, and grafted chunk spans."""

    KEYS = [random_word(32, np.random.default_rng(11)) for _ in range(18)]
    BANKS = [i % 2 for i in range(18)]

    def _traced(self):
        chip = _loaded_chip()
        with obs.observe() as sess:
            chip.search_batch(self.KEYS, self.BANKS)
        (root,) = sess.spans
        return root

    def test_span_sum_equals_merged_ledgers_exactly(self):
        root = self._traced()
        array_spans = [c for c in root.children if c.name == "array.search_batch"]
        assert len(array_spans) == 2
        scalar_chip = _loaded_chip()
        for bank_id, sp in enumerate(array_spans):
            bank = scalar_chip.banks[bank_id]
            merged = EnergyLedger.sum(
                bank.search(k).energy for k, b in zip(self.KEYS, self.BANKS) if b == bank_id
            )
            assert sp.total_energy().as_dict() == merged.as_dict()
            assert sp.total_energy().total == merged.total

    def test_parallel_chunk_spans_carry_no_energy(self):
        with obs.observe() as sess:
            run_fault_campaign(**FAULT_CAMPAIGN, workers=2)
        (root,) = sess.spans
        chunk_spans = [c for c in root.children if ".chunk[" in c.name]
        assert len(chunk_spans) == FAULT_CAMPAIGN["n_trials"]
        for sp in chunk_spans:
            # The joules live in the grafted array spans below the chunk.
            assert sp.energy.total == 0.0
            assert sp.total_energy().total > 0.0


class TestChipInvariant:
    def _traced_batch(self):
        chip = _loaded_chip()
        keys = [random_word(32, np.random.default_rng(5)) for _ in range(12)]
        banks = [i % 2 for i in range(12)]
        with obs.observe() as sess:
            outcomes = chip.search_batch(keys, banks, idle_time=1e-7)
        (root,) = sess.spans
        return root, outcomes, banks

    def test_root_total_matches_merged_ledgers(self):
        root, outcomes, banks = self._traced_batch()
        assert root.name == "chip.search_batch"
        merged = EnergyLedger.sum(o.energy for o in outcomes).as_dict()
        total = root.total_energy().as_dict()
        # Same component set; per-component equal up to reassociation.
        assert set(total) == set(merged)
        for component, joules in merged.items():
            assert math.isclose(total[component], joules, rel_tol=1e-12)

    def test_each_bank_subtree_exact(self):
        root, outcomes, banks = self._traced_batch()
        bank_spans = [c for c in root.children if c.name == "array.search_batch"]
        assert [c.name for c in root.children] == ["array.search_batch"] * 2
        # Banks are searched in index order; each subtree must reproduce
        # the summed bank-level outcome ledgers of that bank exactly.
        for bank_id, sp in enumerate(bank_spans):
            bank_outcomes = [
                o.outcome for o, b in zip(outcomes, banks) if b == bank_id
            ]
            expected = EnergyLedger.sum(o.energy for o in bank_outcomes)
            assert sp.total_energy().as_dict() == expected.as_dict()


class TestMetricsUnderWorkers:
    INTEGER_METRICS = (
        "tcam.searches",
        "faults.trials",
        "faults.searches",
        "kernels.table_hits",
    )

    def _snapshot(self, workers):
        with obs.observe() as sess:
            run_fault_campaign(**FAULT_CAMPAIGN, workers=workers)
        return sess.metrics.snapshot()

    def test_serial_vs_parallel_totals(self):
        serial = self._snapshot(1)
        par = self._snapshot(2)
        assert set(par) == set(serial)
        assert set(self.INTEGER_METRICS) <= set(serial)
        assert any(name.startswith("energy.") for name in serial)
        for name in serial:
            if name in self.INTEGER_METRICS:
                assert par[name] == serial[name], name
            elif name.startswith("energy."):
                assert math.isclose(par[name], serial[name], rel_tol=1e-12), name

    def test_mc_chunk_spans_and_metrics(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "MC_CHUNK_SAMPLES", 16)
        array = build_array(get_design("fefet2t"), ArrayGeometry(8, 16))
        with obs.observe() as sess:
            run_margin_mc(array, NOMINAL_VARIATION, n_samples=40, seed=3, workers=2)
        names = [sp.name for sp in sess.spans]
        assert names == [f"mc.margin.chunk[{i}]" for i in range(3)]

    def test_disabled_obs_with_workers_is_fine(self):
        result = run_fault_campaign(**FAULT_CAMPAIGN, workers=2)
        assert len(result.points) == len(FAULT_CAMPAIGN["densities"])
        assert not obs.is_enabled()
