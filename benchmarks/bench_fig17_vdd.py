"""R-F17 (extension): supply-voltage scaling.

Regenerates the VDD-scaling figure: search energy, delay and sense
margin as the array supply scales from 0.6 V to 1.1 V for the CMOS
baseline and the plain FeFET design.  The expected shape: energy falls
super-linearly with VDD (the CV^2-flavoured ML/SL terms), delay rises as
pull-down overdrive shrinks -- much more steeply for CMOS, whose compare
gates ride on VDD, than for the FeFET design, whose search gates are
driven from a separate (boosted) search-line supply.
"""

from __future__ import annotations

from repro.analysis.throughput import characterize
from repro.core import build_array, get_design
from repro.reporting.series import FigureSeries
from repro.tcam import ArrayGeometry

EXPERIMENT_ID = "R-F17_vdd"
GEO = ArrayGeometry(rows=32, cols=64)
VDDS = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
DESIGNS = ("cmos16t", "fefet2t")
N_SEARCHES = 4


def measure(design: str, vdd: float) -> tuple[float, float, float]:
    """(energy/search, search delay, margin) at one supply."""
    array = build_array(get_design(design), GEO, vdd=vdd)
    report = characterize(array, N_SEARCHES, seed=171)
    assert report.functional_errors == 0, (design, vdd)
    return report.energy_per_search, report.search_delay, array.sense_margin()


def build_figures():
    energy_fig = FigureSeries(
        title="R-F17a: search energy vs VDD (32x64)",
        x_label="VDD [V]",
        y_label="energy [J/search]",
        x=list(VDDS),
        y_unit="J",
    )
    delay_fig = FigureSeries(
        title="R-F17b: search delay vs VDD",
        x_label="VDD [V]",
        y_label="delay [s]",
        x=list(VDDS),
        y_unit="s",
    )
    margin_fig = FigureSeries(
        title="R-F17c: sense margin vs VDD",
        x_label="VDD [V]",
        y_label="margin [V]",
        x=list(VDDS),
    )
    for design in DESIGNS:
        energies, delays, margins = [], [], []
        for vdd in VDDS:
            e, d, m = measure(design, vdd)
            energies.append(e)
            delays.append(d)
            margins.append(round(m, 4))
        energy_fig.add_series(design, energies)
        delay_fig.add_series(design, delays)
        margin_fig.add_series(design, margins)
    return energy_fig, delay_fig, margin_fig


def test_fig17_vdd(benchmark, save_artifact):
    energy_fig, delay_fig, margin_fig = build_figures()
    save_artifact(
        EXPERIMENT_ID,
        "\n\n".join(f.to_text() for f in (energy_fig, delay_fig, margin_fig)),
    )

    for design in DESIGNS:
        e = energy_fig.series(design)
        # Energy monotone in VDD; scaling 0.9 -> 0.6 saves >= 35%
        # (super-linear: the CV^2-flavoured terms).
        assert all(b >= a for a, b in zip(e, e[1:])), design
        i06, i09 = 0, VDDS.index(0.9)
        assert e[i06] < 0.65 * e[i09], design
    # CMOS delay collapses at low VDD (compare overdrive rides the supply):
    # >= 4x slower at 0.6 V than at 1.1 V.
    cmos_d = delay_fig.series("cmos16t")
    assert cmos_d[0] > 4.0 * cmos_d[-1]
    assert all(b <= a for a, b in zip(cmos_d, cmos_d[1:]))
    # The FeFET design's search gates run from a separate supply: its
    # delay is nearly flat -- and mildly *faster* at low VDD, where the
    # discharge swing shrinks while the pull-down current does not.
    fefet_d = delay_fig.series("fefet2t")
    assert max(fefet_d) < 1.3 * min(fefet_d)
    assert fefet_d[0] < fefet_d[-1]

    benchmark(lambda: measure("fefet2t", 0.8))
