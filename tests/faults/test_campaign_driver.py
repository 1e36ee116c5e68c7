"""End-to-end fault campaigns: determinism, monotonicity, observability."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.analysis.faultcampaign import run_fault_campaign
from repro.errors import AnalysisError
from repro.kernels import KernelEngine
from repro.tcam import TCAMArray

CONFIG = dict(
    design="fefet2t",
    rows=12,
    cols=12,
    densities=(0.0, 0.05),
    mode="random",
    repair="spare-rows",
    n_spare=2,
    n_trials=2,
    n_keys=6,
    seed=424242,
)


class TestCampaignResults:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fault_campaign(**CONFIG, workers=0)

    def test_density_zero_point_is_clean(self, result):
        clean = result.points[0]
        assert clean.density == 0.0
        assert clean.false_matches == 0
        assert clean.false_misses == 0
        assert clean.energy_delta == 0.0
        assert clean.post_repair_yield == 1.0

    def test_error_counts_monotone_in_density(self, result):
        combined = [p.false_matches + p.false_misses for p in result.points]
        assert combined == sorted(combined)

    def test_rates_are_normalized(self, result):
        for p in result.points:
            assert 0.0 <= p.false_match_rate <= 1.0
            assert 0.0 <= p.false_miss_rate <= 1.0
            assert 0.0 <= p.post_repair_yield <= 1.0

    def test_to_dict_round_trips_through_json(self, result):
        d = result.to_dict()
        assert d["design"] == "fefet2t"
        assert len(d["points"]) == len(CONFIG["densities"])
        json.dumps(d)

    def test_serial_matches_two_workers_bit_identically(self, result):
        parallel = run_fault_campaign(**CONFIG, workers=2)
        assert result.to_dict() == parallel.to_dict()

    def test_seed_reproducibility(self, result):
        again = run_fault_campaign(**CONFIG, workers=0)
        assert result.to_dict() == again.to_dict()

    def test_kernel_engine_bit_identical(self, result, per_key_search):
        """Trials answer their keys through the compiled batch engine;
        the per-key scalar ``search`` loop (the healthy and the faulty
        reference) must give every count and joule unchanged."""
        with per_key_search():
            reference = run_fault_campaign(**CONFIG, workers=0)
        assert result.to_dict() == reference.to_dict()


class TestCampaignModes:
    @pytest.mark.parametrize("mode", ["clustered", "wear"])
    def test_other_generator_modes_run(self, mode):
        result = run_fault_campaign(
            **{**CONFIG, "mode": mode, "densities": (0.05,), "n_trials": 1}
        )
        (point,) = result.points
        assert point.n_faulty_cells > 0
        assert point.total_keys > 0

    @pytest.mark.parametrize("repair", ["none", "mask"])
    def test_other_repair_policies_run(self, repair):
        result = run_fault_campaign(
            **{**CONFIG, "repair": repair, "densities": (0.05,), "n_trials": 1}
        )
        (point,) = result.points
        assert point.repair_energy >= 0.0


class TestValidationAndObservability:
    @pytest.mark.parametrize(
        "bad",
        [
            {"design": "not-a-design"},
            {"design": "fefet_nand"},  # serial NAND array has no fault hooks
            {"mode": "bogus"},
            {"repair": "solder"},
            {"densities": (0.5, 2.0)},
            {"n_trials": 0},
            {"n_keys": 0},
            {"rows": 2, "n_spare": 4},
        ],
    )
    def test_bad_arguments_rejected(self, bad):
        with pytest.raises(AnalysisError):
            run_fault_campaign(**{**CONFIG, **bad})

    def test_campaign_is_traced_and_counted(self):
        with obs.observe() as sess:
            run_fault_campaign(
                **{**CONFIG, "densities": (0.05,), "n_trials": 2}, workers=0
            )
        names = [span.name for span in sess.spans]
        assert "faults.campaign" in names
        snapshot = sess.metrics.snapshot()
        assert snapshot["faults.trials"] == 2.0
        assert not obs.is_enabled()


class TestTrialTableSharing:
    def test_trial_compiles_each_row_and_signature_once(self, monkeypatch):
        """Every instance of a trial adopts the golden instance's tables:
        across the golden search, each density's faulty search and each
        repaired search, a driven row compiles once and a fault
        signature integrates once."""
        built, integrated = [], []
        build, integrate = KernelEngine._build, TCAMArray._fault_sig_classes

        def record_build(engine, drivens):
            built.extend(drivens)
            return build(engine, drivens)

        def record_integrate(array, sigs):
            integrated.extend(sigs)
            return integrate(array, sigs)

        monkeypatch.setattr(KernelEngine, "_build", record_build)
        monkeypatch.setattr(TCAMArray, "_fault_sig_classes", record_integrate)
        run_fault_campaign(
            **{**CONFIG, "densities": (0.05, 0.1, 0.2), "n_trials": 1}, workers=0
        )
        assert built and integrated
        assert len(built) == len(set(built))
        assert len(integrated) == len(set(integrated))
