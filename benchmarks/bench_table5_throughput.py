"""R-T5 (extension): throughput / power / EDP comparison table.

Regenerates the derived-metrics table: searches per second at the cycle
time, dynamic power at full rate, energy-delay product and searches per
joule for every design on the canonical 64x64 workload.  The expected
shape: the NOR FeFET designs win both energy *and* delay so they
dominate EDP outright; Design CR and NAND win energy but give some of it
back in EDP through their slower evaluation.
"""

from __future__ import annotations

from repro.analysis.throughput import characterize
from repro.core import all_designs, build_array
from repro.reporting.table import Table
from repro.tcam import ArrayGeometry
from repro.units import eng

EXPERIMENT_ID = "R-T5_throughput"
GEO = ArrayGeometry(rows=64, cols=64)


def build_table():
    table = Table(
        title="R-T5: derived figures of merit (64x64, canonical workload)",
        columns=[
            "design", "E/search", "cycle", "throughput",
            "power@rate", "EDP", "searches/J",
        ],
    )
    reports = {}
    for spec in all_designs():
        array = build_array(spec, GEO)
        report = characterize(array)
        assert report.functional_errors == 0, spec.name
        reports[spec.name] = report
        table.add_row(
            spec.name,
            eng(report.energy_per_search, "J"),
            eng(report.cycle_time, "s"),
            eng(report.throughput, "search/s"),
            eng(report.power_at_rate, "W"),
            eng(report.edp, "Js"),
            eng(report.searches_per_joule, "/J"),
        )
    return table, reports


def test_table5_throughput(benchmark, save_artifact):
    table, reports = build_table()
    save_artifact(EXPERIMENT_ID, table.to_ascii())

    # NOR FeFET designs dominate CMOS on EDP (they win energy AND delay).
    assert reports["fefet2t"].edp < 0.5 * reports["cmos16t"].edp
    assert reports["fefet2t_lv"].edp < reports["fefet2t"].edp
    # Design CR wins energy but pays latency: its EDP exceeds LV's.
    assert reports["fefet_cr"].energy_per_search < reports["fefet2t"].energy_per_search
    assert reports["fefet_cr"].edp > reports["fefet2t_lv"].edp
    # Throughput ordering: plain FeFET cycles faster than CMOS.
    assert reports["fefet2t"].throughput > reports["cmos16t"].throughput
    # searches/J is the inverse of energy by construction.
    r = reports["fefet2t"]
    assert r.searches_per_joule * r.energy_per_search == 1.0

    from repro.core import get_design

    array = build_array(get_design("fefet2t"), GEO)
    benchmark(lambda: characterize(array, n_searches=2))
