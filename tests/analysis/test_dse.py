"""The design-space explorer: space construction, metrics, frontier."""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.dse import (
    MAXIMIZE,
    MINIMIZE,
    DesignPoint,
    _build,
    _payloads,
    default_space,
    evaluate_point,
    pareto_frontier,
    run_dse,
)
from repro.errors import AnalysisError
from repro.tcam.cells import list_cells

#: Two row counts, so that points share an electrical signature (row
#: count is not part of one) and payloads hold more than one point.
SHARED_SPACE = default_space(
    cells=["fefet2t", "seemcam"], rows=(8, 16), cols=(16,), segments=(0,)
)


class TestSpaceConstruction:
    def test_default_space_covers_every_registered_cell(self):
        cells = {p.cell for p in default_space()}
        assert cells == set(list_cells())

    def test_current_race_only_at_flat_coordinates(self):
        space = default_space(cells=["fefet2t"], segments=(0, 4), cols=(16,))
        for p in space:
            if p.sensing == "current_race":
                assert p.segments == 0

    def test_degenerate_probe_widths_skipped(self):
        space = default_space(cells=["fefet2t"], segments=(0, 16, 99), cols=(16,))
        assert all(p.segments < 16 for p in space)

    def test_labels_are_unique(self):
        space = default_space(segments=(0, 4), vdds=(None, 0.8))
        labels = [p.label() for p in space]
        assert len(labels) == len(set(labels))

    def test_seed_key_is_stable_and_point_specific(self):
        a = DesignPoint("fefet2t", 8, 16)
        b = DesignPoint("fefet2t", 8, 16)
        c = DesignPoint("seemcam", 8, 16)
        assert a.seed_key(3) == b.seed_key(3)
        assert a.seed_key(3) != c.seed_key(3)
        assert a.seed_key(3) != a.seed_key(4)


MALFORMED = [
    (DesignPoint("fefet2t", 8, 8, sensing="bogus"), "sensing must be one of"),
    (DesignPoint("bogus", 8, 8), "unknown cell 'bogus'"),
    (DesignPoint("fefet2t", 0, 8), "rows and cols must be >= 1"),
    (DesignPoint("fefet2t", 8, 0), "rows and cols must be >= 1"),
    (DesignPoint("fefet2t", -1, 8), "rows and cols must be >= 1"),
    (DesignPoint("fefet2t", 8, 8, segments=-1), r"segments must be in \[0, 8\)"),
    (DesignPoint("fefet2t", 8, 8, segments=8), r"segments must be in \[0, 8\)"),
    (DesignPoint("fefet2t", 8, 8, segments=9), r"segments must be in \[0, 8\)"),
]

#: ``evaluate_point`` rejects the segmented current-race point too; that
#: case is ``TestEvaluatePoint::test_current_race_with_segments_rejected``.
REJECTED_BY_RUN = [
    *MALFORMED,
    (
        DesignPoint("fefet2t", 8, 16, segments=4, sensing="current_race"),
        "precharge sensing only",
    ),
]


class TestDesignPointValidation:
    @pytest.mark.parametrize(
        "point, message", MALFORMED, ids=[p.label() for p, _ in MALFORMED]
    )
    def test_evaluate_point_rejects(self, point, message):
        with pytest.raises(AnalysisError, match=f"evaluate_point: .*{message}"):
            evaluate_point(point, searches=1)

    @pytest.mark.parametrize(
        "point, message", REJECTED_BY_RUN, ids=[p.label() for p, _ in REJECTED_BY_RUN]
    )
    def test_run_dse_rejects_before_any_point(self, monkeypatch, point, message):
        import repro.analysis.dse as dse_mod

        calls = []
        monkeypatch.setattr(
            dse_mod, "evaluate_point", lambda p, **kw: calls.append(p)
        )
        with pytest.raises(AnalysisError, match=f"run_dse: .*{message}"):
            dse_mod.run_dse([DesignPoint("fefet2t", 8, 16), point], searches=1)
        assert calls == []


class TestEvaluatePoint:
    def test_metrics_shape_and_signs(self):
        row = evaluate_point(DesignPoint("fefet2t", 8, 16), searches=2)
        for key in MINIMIZE:
            assert row[key] > 0.0
        assert 0.0 < row["accuracy"] <= 1.0
        assert row["functional_errors"] == 0
        assert row["stored_bits"] == 8 * 16
        assert row["label"] == "fefet2t/8x16/precharge"

    def test_multi_bit_cells_report_density(self):
        row = evaluate_point(DesignPoint("seemcam", 8, 16), searches=2)
        assert row["bits_per_cell"] == 2.0
        assert row["stored_bits"] == 2 * 8 * 16
        assert row["area_f2_per_bit"] < 74.0

    def test_segmented_point_cheaper_than_flat(self):
        flat = evaluate_point(DesignPoint("fefet2t", 16, 16), searches=4)
        seg = evaluate_point(
            DesignPoint("fefet2t", 16, 16, segments=4), searches=4
        )
        assert seg["energy_per_search"] < flat["energy_per_search"]

    def test_kernel_path_is_bit_identical(self):
        point = DesignPoint("fefet2t", 8, 16)
        plain = evaluate_point(point, searches=4)
        kernel = evaluate_point(point, searches=4, use_kernel=True)
        assert plain == kernel

    @pytest.mark.parametrize(
        "point",
        [
            DesignPoint("fefet2t", 8, 16, segments=4),
            DesignPoint("fefet2t", 8, 16, sensing="current_race"),
            DesignPoint("fecam", 8, 16),
        ],
        ids=lambda p: p.label(),
    )
    def test_batch_path_is_bit_identical_everywhere(self, point):
        assert evaluate_point(point, searches=3) == evaluate_point(
            point, searches=3, use_kernel=True
        )

    def test_rejects_zero_searches(self):
        with pytest.raises(AnalysisError, match="evaluate_point: searches"):
            evaluate_point(DesignPoint("fefet2t", 8, 16), searches=0)

    def test_current_race_with_segments_rejected(self):
        bad = DesignPoint("fefet2t", 8, 16, segments=4, sensing="current_race")
        with pytest.raises(AnalysisError):
            evaluate_point(bad, searches=1)


class TestParetoFrontier:
    def test_dominated_rows_dropped(self):
        rows = [
            {m: 1.0 for m in (*MINIMIZE, *MAXIMIZE)},
            {m: 2.0 for m in MINIMIZE} | {m: 1.0 for m in MAXIMIZE},
        ]
        assert pareto_frontier(rows) == (0,)

    def test_trade_offs_both_survive(self):
        base = {m: 1.0 for m in (*MINIMIZE, *MAXIMIZE)}
        cheaper = dict(base, energy_per_bit=0.5, accuracy=0.9)
        assert pareto_frontier([base, cheaper]) == (0, 1)

    def test_equal_rows_both_survive(self):
        base = {m: 1.0 for m in (*MINIMIZE, *MAXIMIZE)}
        assert pareto_frontier([base, dict(base)]) == (0, 1)


class TestRunDSE:
    SPACE = default_space(
        cells=["fefet2t", "seemcam"], rows=(8,), cols=(16,), segments=(0,)
    )

    def test_empty_space_rejected(self):
        with pytest.raises(AnalysisError):
            run_dse([])

    def test_zero_searches_rejected_up_front(self):
        with pytest.raises(AnalysisError, match="run_dse: searches must be >= 1"):
            run_dse(self.SPACE, searches=0)

    def test_frontier_is_subset_of_cloud(self):
        result = run_dse(self.SPACE, searches=2)
        assert len(result.points) == len(self.SPACE)
        for idx in result.frontier_indices:
            assert result.points[idx] in result.frontier

    def test_rows_identical_across_worker_counts(self):
        for space in (self.SPACE, SHARED_SPACE):
            serial = run_dse(space, searches=2, workers=0)
            parallel = run_dse(space, searches=2, workers=2)
            assert serial.points == parallel.points
            assert serial.frontier_indices == parallel.frontier_indices

    def test_error_points_reported_but_not_on_frontier(self, monkeypatch):
        # A functionally broken point stays in the cloud with its error
        # count but is barred from the frontier -- even when its metrics
        # would otherwise dominate everything.
        import repro.analysis.dse as dse_mod

        real = dse_mod.evaluate_point

        def flaky(point, **kwargs):
            row = real(point, **kwargs)
            if point.cell == "seemcam":
                row = dict(
                    row,
                    functional_errors=3,
                    energy_per_bit=row["energy_per_bit"] * 1e-6,
                )
            return row

        monkeypatch.setattr(dse_mod, "evaluate_point", flaky)
        result = dse_mod.run_dse(self.SPACE, searches=2)
        broken = [p for p in result.points if p["functional_errors"] > 0]
        assert broken
        for row in result.frontier:
            assert row["functional_errors"] == 0
            assert row["cell"] != "seemcam"

    def test_to_dict_round_trips_through_json(self):
        import json

        result = run_dse(self.SPACE, searches=2)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["n_points"] == len(self.SPACE)
        assert payload["frontier_size"] == len(result.frontier_indices)
        assert set(payload["frontier_cells"]) <= {"fefet2t", "seemcam"}


class TestTableSharing:
    """One compiled table set per electrical signature within a run."""

    SPACE = SHARED_SPACE

    @staticmethod
    def precharge_signatures(space) -> set:
        sigs = set()
        for point in space:
            _, array = _build(point)
            if point.sensing == "precharge":
                sigs.add(array.kernel._electrical_signature())
        return sigs

    def test_one_integration_per_signature_per_run(self):
        n_sigs = len(self.precharge_signatures(self.SPACE))
        # Row count is not in the signature, so points do share here.
        assert n_sigs == 2 < sum(p.sensing == "precharge" for p in self.SPACE)
        for _ in range(2):  # a second run starts cold again
            with obs.observe() as session:
                run_dse(self.SPACE, searches=2)
            snap = session.metrics.snapshot()
            assert snap["rk4.batched_integrations"] == float(n_sigs)

    def test_pool_is_keyed_by_signature(self):
        tables: dict = {}
        for point in self.SPACE:
            evaluate_point(point, searches=1, use_kernel=True, tables=tables)
        assert len(tables) == 4  # two cells x two sensing styles
        evaluate_point(
            DesignPoint("fefet2t", 8, 16, segments=4),
            searches=1,
            use_kernel=True,
            tables=tables,
        )
        assert len(tables) == 4  # segmented banks do not take part
        for sig, engine in tables.items():
            assert engine._electrical_signature() == sig

    def test_shared_points_equal_unshared_and_scalar(self):
        result = run_dse(self.SPACE, searches=2)
        for point, row in zip(self.SPACE, result.points):
            assert row == evaluate_point(point, searches=2, use_kernel=True)
            assert row == evaluate_point(point, searches=2)

    def test_payloads_group_by_signature_and_split_to_keep_workers_busy(self):
        # Serial: one payload per (cell, cols, sensing, vdd), rows 8 and 16.
        payloads = _payloads(self.SPACE, 0)
        assert len(payloads) == 4
        for idx in payloads:
            assert [self.SPACE[i].rows for i in idx] == [8, 16]
        # A group larger than an even share of the space is split.
        sweep = [DesignPoint("fefet2t", rows, 16) for rows in (8, 16, 32, 64)]
        assert _payloads(sweep, 0) == [[0, 1, 2, 3]]
        assert _payloads(sweep, 2) == [[0, 1], [2, 3]]
        assert _payloads(sweep, 8) == [[0], [1], [2], [3]]
        # A segmented point stands alone.
        seg = [DesignPoint("fefet2t", rows, 16, segments=4) for rows in (8, 16)]
        assert _payloads(seg, 0) == [[0], [1]]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_integration_per_payload(self, workers):
        sweep = [DesignPoint("fefet2t", rows, 16) for rows in (8, 16, 32, 64)]
        with obs.observe() as session:
            run_dse(sweep, searches=2, workers=workers)
        snap = session.metrics.snapshot()
        assert snap["rk4.batched_integrations"] == float(len(_payloads(sweep, workers)))
