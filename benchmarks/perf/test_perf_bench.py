"""Self-test of the host-time benchmark at tiny sizes.

Run with ``pytest benchmarks/perf``.  Checks that every metric is
reported with its unit, that correct code checks clean and a corrupted
result does not, that traced self-times add up to the traced phases,
and that tracing leaves every modelled output unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import worker  # noqa: E402
from tracer import SELF_TIME  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def plain():
    return {name: worker.run_once(name, 0, "tiny") for name in NAMES}


@pytest.fixture(scope="module")
def traced():
    return {name: worker.run_once(name, 0, "tiny", trace=True) for name in NAMES}


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--size", "tiny", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_present_with_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_error_rate_is_zero_on_correct_code(plain):
    for name, record in plain.items():
        assert record["attempted"] > 0, name
        assert record["failed"] == 0, (name, record["failures"])
        for key in ("setup_s", "run_s", "warm_run_s"):
            assert len(record[key]) >= worker.MIN_CYCLES, (name, key)


def _corrupt_report(report):
    rec = report.records[0]
    report.records[0] = dataclasses.replace(rec, row=0 if rec.row is None else rec.row + 1)


def _corrupt_serve(report):
    _corrupt_report(report)
    return report


def _corrupt_retrieval(result):
    result["rows"][0, 0] += 1
    return result


def _corrupt_cluster(result):
    _corrupt_report(result["rounds"][0][0])
    return result


def _corrupt_dse(result):
    result.points[0]["energy_per_search"] = -1.0
    return result


CORRUPT = {
    "serve": _corrupt_serve,
    "retrieval": _corrupt_retrieval,
    "cluster_churn": _corrupt_cluster,
    "dse": _corrupt_dse,
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_result_raises_error_rate(name, monkeypatch):
    wl = WORKLOADS[name]
    run = wl.run
    monkeypatch.setattr(wl, "run", lambda state, inputs: CORRUPT[name](run(state, inputs)))
    record = worker.run_once(name, 0, "tiny")
    assert record["failed"] > 0


def test_traced_self_times_add_up(traced):
    self_metrics = set(SELF_TIME.values())
    for name, record in traced.items():
        assert record["failed"] == 0, (name, record["failures"])
        layers = record["layers"]
        total = sum(layers[m] for m in self_metrics)
        raw = record["raw"]
        measured = raw["setup_s"][0] + raw["run_s"][0]
        assert abs(total - measured) <= max(0.02 * measured, 2e-3), name
        assert layers["host.traced_run_s"] == raw["run_s"][0]


def test_modelled_outputs_identical_traced_and_untraced(plain, traced):
    for name in NAMES:
        assert traced[name]["modeled"] == plain[name]["modeled"], name


def test_compare_labels_pairs(tmp_path):
    def results(run_s):
        return {
            "fingerprint": {"commit": "x"},
            "workloads": {"serve": {"metrics": {
                "run_s": {"unit": "s", "values": run_s, "value": min(run_s)},
            }}},
        }

    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(results([1.00, 1.01, 1.02])))
    b.write_text(json.dumps(results([1.01, 1.02, 1.03])))
    c.write_text(json.dumps(results([2.00, 2.01, 2.02])))
    for other, verdict in ((b, "within bound"), (c, "outside bound")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--compare", str(a), str(other)],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert verdict in out.splitlines()[-1]
