"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDesigns:
    def test_lists_all_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in ("cmos16t", "reram2t2r", "fefet2t", "fefet2t_lv", "fefet_cr", "fefet_nand"):
            assert name in out

    def test_lists_registered_cells(self, capsys):
        main(["designs"])
        out = capsys.readouterr().out
        assert "Registered TCAM cells" in out
        for name in ("fefet_mlc", "seemcam", "fecam"):
            assert name in out


class TestCompare:
    def test_small_comparison_runs(self, capsys):
        assert main(["compare", "--rows", "8", "--cols", "16", "--searches", "2"]) == 0
        out = capsys.readouterr().out
        assert "E/search" in out
        assert "fefet2t_lv" in out

    def test_error_column_zero(self, capsys):
        main(["compare", "--rows", "8", "--cols", "16", "--searches", "2"])
        out = capsys.readouterr().out
        data_lines = [
            line for line in out.splitlines()
            if line.startswith(("cmos", "reram", "fefet"))
        ]
        assert data_lines
        assert all(line.rstrip().endswith("0") for line in data_lines)

    def test_json_matches_per_key_reference(self, capsys, per_key_search):
        args = ["compare", "--rows", "8", "--cols", "16", "--searches", "3", "--json"]
        assert main(args) == 0
        batch = json.loads(capsys.readouterr().out)
        with per_key_search():
            assert main(args) == 0
        assert batch == json.loads(capsys.readouterr().out)
        assert len(batch["designs"]) == 6

    def test_zero_searches_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--rows", "8", "--cols", "16", "--searches", "0"])
        assert "--searches: must be >= 1" in capsys.readouterr().err


class TestMargin:
    def test_reports_margin(self, capsys):
        assert main(["margin", "--design", "fefet2t_lv", "--swing", "0.5",
                     "--rows", "8", "--cols", "16"]) == 0
        out = capsys.readouterr().out
        assert "sense margin" in out
        assert "functional      : True" in out


class TestMonteCarlo:
    def test_runs_small_mc(self, capsys):
        assert main(["mc", "--design", "fefet2t", "--samples", "20",
                     "--rows", "4", "--cols", "16"]) == 0
        out = capsys.readouterr().out
        assert "margin mean" in out


class TestLpm:
    def test_agrees_with_oracle(self, capsys):
        assert main(["lpm", "--routes", "20", "--lookups", "15"]) == 0
        out = capsys.readouterr().out
        assert "oracle agreement: 15/15" in out


class TestAdvise:
    def test_recommends_a_design(self, capsys):
        assert main(["advise", "--rows", "8", "--cols", "16"]) == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "Design advisor" in out


class TestRetention:
    def test_spec_point(self, capsys):
        assert main(["retention", "--celsius", "85", "--years", "10"]) == 0
        out = capsys.readouterr().out
        assert "retention       : 0.90" in out

    def test_room_temperature(self, capsys):
        assert main(["retention", "--celsius", "25", "--years", "10"]) == 0
        out = capsys.readouterr().out
        assert "time to 10% loss" in out


class TestDse:
    ARGS = ["dse", "--cell", "fefet2t", "--cell", "seemcam",
            "--rows", "8", "--cols", "16", "--searches", "2"]

    def test_table_mode(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "frontier cells:" in out
        assert "fefet2t" in out

    def test_json_mode_carries_frontier(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "dse"
        assert payload["frontier_size"] >= 1
        assert payload["n_points"] == len(payload["points"])
        assert {row["cell"] for row in payload["points"]} == {"fefet2t", "seemcam"}
        for row in payload["frontier"]:
            assert row["functional_errors"] == 0

    def test_matches_per_key_reference(self, capsys):
        """Every point the CLI sweeps equals ``evaluate_point``'s per-key
        scalar default, and the frontier is reduced from those rows."""
        from repro.analysis.dse import default_space, evaluate_point, pareto_frontier

        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        space = default_space(cells=["fefet2t", "seemcam"], rows=(8,), cols=(16,))
        ref = [evaluate_point(p, searches=2, seed=0) for p in space]
        assert payload["points"] == json.loads(json.dumps(ref))
        clean = [row for row in ref if row["functional_errors"] == 0]
        frontier = [clean[i] for i in pareto_frontier(clean)]
        assert payload["frontier"] == json.loads(json.dumps(frontier))

    def test_zero_searches_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([*self.ARGS[:-1], "0"])
        assert "--searches: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--rows", "0", "--rows: must be >= 1"),
            ("--cols", "0", "--cols: must be >= 1"),
            ("--segments", "-1", "--segments: must be >= 0"),
        ],
    )
    def test_bad_geometry_is_a_usage_error(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--cell", "fefet2t", flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestLibraryErrors:
    """A ``ReproError`` ends a command with one typed line on stderr."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["compare", "--design", "bogus", "--rows", "8", "--cols", "16"], "bogus"),
            (["dse", "--cell", "bogus"], "bogus"),
        ],
        ids=["compare-design", "dse-cell"],
    )
    def test_unknown_name_is_one_error_line(self, capsys, argv, bad):
        assert main(argv) != 0
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert f"'{bad}'" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestReportValidation:
    def test_report_rejects_unknown_schema(self, tmp_path, capsys):
        (tmp_path / "BENCH_bad.json").write_text('{"schema_version": 999}')
        code = main(["report", "--bench-dir", str(tmp_path),
                     "--output-dir", str(tmp_path / "out"),
                     "--out", str(tmp_path / "REPORT.md")])
        assert code != 0
        assert "unknown schema_version" in capsys.readouterr().err

    def test_report_counts_validated_artifacts(self, tmp_path, capsys):
        (tmp_path / "BENCH_ok.json").write_text('{"schema_version": 1}')
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "fig2.txt").write_text("stub artifact\n")
        assert main(["report", "--bench-dir", str(tmp_path),
                     "--output-dir", str(tmp_path / "out"),
                     "--out", str(tmp_path / "REPORT.md")]) == 0
        out = capsys.readouterr().out
        assert "validated 1 benchmark artifact(s)" in out


class TestJsonMode:
    def test_designs_json(self, capsys):
        assert main(["designs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "designs"
        assert {d["key"] for d in payload["designs"]} >= {"cmos16t", "fefet2t"}
        assert all("cell" in d for d in payload["designs"])
        cells = {c["key"] for c in payload["cells"]}
        assert cells >= {"cmos16t", "fefet2t", "seemcam", "fecam"}

    def test_compare_json_with_design_filter(self, capsys):
        assert main(["compare", "--design", "fefet2t", "--rows", "8",
                     "--cols", "16", "--searches", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [d["design"] for d in payload["designs"]] == ["fefet2t"]
        entry = payload["designs"][0]
        assert entry["energy_per_search"] > 0.0
        assert isinstance(entry["energy"], dict)  # ledger as_dict()

    def test_lpm_json_carries_outcome_dict(self, capsys):
        assert main(["lpm", "--routes", "10", "--lookups", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_agreement"] == 5
        outcome = payload["last_outcome"]
        assert outcome["type"] == "SearchOutcome"
        for key in ("match_mask", "first_match", "energy", "energy_total",
                    "search_delay", "cycle_time"):
            assert key in outcome

    def test_lpm_rows_flag(self, capsys):
        assert main(["lpm", "--routes", "10", "--lookups", "5",
                     "--rows", "64", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 64

    def test_mc_json(self, capsys):
        assert main(["mc", "--design", "fefet2t", "--samples", "20",
                     "--rows", "4", "--cols", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 20
        assert "margin_mean" in payload

    def test_retention_json(self, capsys):
        assert main(["retention", "--celsius", "85", "--years", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["retention_fraction"] <= 1.0


class TestTrace:
    def test_trace_prints_span_and_metrics_tables(self, capsys):
        assert main(["trace", "compare", "--rows", "8", "--cols", "16",
                     "--searches", "2"]) == 0
        out = capsys.readouterr().out
        assert "Design comparison" in out  # the wrapped command still runs
        assert "Trace spans" in out
        assert "array.search" in out
        assert "tcam.searches" in out

    def test_trace_writes_jsonl(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["trace", "lpm", "--routes", "10", "--lookups", "5",
                     "--trace-out", str(trace_path)]) == 0
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "metrics"}
        span_names = {r["name"] for r in records if r["kind"] == "span"}
        assert "workload.lpm.lookup_batch" in span_names
        assert "array.search_batch" in span_names
        metrics = [r for r in records if r["kind"] == "metrics"][0]["metrics"]
        assert metrics["tcam.searches"] >= 5.0

    def test_trace_rejects_itself(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "trace"])

    def test_observability_off_after_trace(self, capsys):
        from repro import obs

        main(["trace", "designs"])
        assert not obs.is_enabled()


class TestDisturb:
    def test_half_select_report(self, capsys):
        assert main(["disturb", "--scheme", "V/2", "--pulses", "1000"]) == 0
        out = capsys.readouterr().out
        assert "retention" in out

    def test_third_select_retains(self, capsys):
        assert main(["disturb", "--scheme", "V/3", "--pulses", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "retention       : 1.0000" in out or "retention       : 0.99" in out


class TestFaults:
    _SMALL = ["faults", "--rows", "12", "--cols", "12", "--trials", "1",
              "--keys", "6", "--spare-rows", "2", "--density", "0.05"]

    def test_table_mode(self, capsys):
        assert main(self._SMALL) == 0
        out = capsys.readouterr().out
        assert "density" in out and "yield" in out

    def test_json_mode_carries_sweep(self, capsys):
        assert main(self._SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "faults"
        assert payload["repair"] == "spare-rows"
        (point,) = payload["points"]
        assert point["density"] == 0.05
        assert 0.0 <= point["post_repair_yield"] <= 1.0

    def test_traceable(self, capsys):
        from repro import obs

        assert main(["trace"] + self._SMALL) == 0
        assert not obs.is_enabled()
        assert "faults.campaign" in capsys.readouterr().out

    def test_matches_per_key_reference(self, capsys, per_key_search):
        """The CLI's campaign answers searches in batches; the per-key
        scalar ``search`` loop must produce the same record."""
        from repro.analysis.faultcampaign import run_fault_campaign

        assert main(self._SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        args = build_parser().parse_args(self._SMALL)
        with per_key_search():
            ref = run_fault_campaign(
                design=args.design, rows=args.rows, cols=args.cols,
                densities=tuple(args.density), mode=args.mode, repair=args.repair,
                n_spare=args.spare_rows, n_trials=args.trials, n_keys=args.keys,
                seed=args.seed,
            )
        assert payload == {"command": "faults", **json.loads(json.dumps(ref.to_dict()))}


class TestCluster:
    _SMALL = ["cluster", "--chips", "1,2", "--policy", "range",
              "--rules", "24", "--cols", "16", "--requests", "60",
              "--churn", "16"]

    def test_table_mode(self, capsys):
        assert main(self._SMALL) == 0
        out = capsys.readouterr().out
        assert "Cluster scaling" in out
        assert "range" in out

    def test_json_carries_frontier(self, capsys):
        assert main(self._SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "cluster"
        assert payload["schema_version"] == 1
        assert payload["config"]["chip_counts"] == [1, 2]
        assert len(payload["points"]) == 2
        for point in payload["points"]:
            assert point["conserved"]
            assert point["churn_integrity"]
            assert point["throughput"] > 0.0

    @pytest.mark.parametrize("command", ["cluster", "serve", "mc"])
    def test_no_workers_flag(self, command, capsys):
        """Shards, banks and margin samples run in-process: no fan-out flag."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--workers" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main([command, "--workers", "2"])

    def test_traceable(self, capsys):
        from repro import obs

        assert main(["trace"] + self._SMALL) == 0
        assert not obs.is_enabled()
        assert "cluster.search_batch" in capsys.readouterr().out

    def test_bad_policy_rejected(self, capsys):
        assert main(["cluster", "--chips", "1", "--policy", "nope",
                     "--rules", "8", "--cols", "12", "--requests", "10"]) != 0
