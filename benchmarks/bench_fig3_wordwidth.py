"""R-F3: search energy per bit vs word width.

Regenerates the scaling figure: per-bit search energy as the word widens
from 8 to 256 trits, per design.  Wider words grow the ML capacitance
linearly, so the per-bit energy is roughly flat with a wire-driven upward
drift -- while the ordering between designs holds at every width.
"""

from __future__ import annotations

from repro.analysis.throughput import characterize
from repro.core import all_designs, build_array
from repro.reporting.series import FigureSeries
from repro.tcam import ArrayGeometry

EXPERIMENT_ID = "R-F3_wordwidth"
WIDTHS = (8, 16, 32, 64, 128, 256)
ROWS = 32
N_SEARCHES = 4


def energy_per_bit(spec, cols: int) -> float:
    array = build_array(spec, ArrayGeometry(ROWS, cols))
    report = characterize(array, N_SEARCHES, seed=100 + cols)
    assert report.functional_errors == 0
    return report.energy_per_search / (ROWS * cols)


def build_figure() -> FigureSeries:
    fig = FigureSeries(
        title="R-F3: search energy per bit vs word width (32 rows)",
        x_label="word width [trits]",
        y_label="energy [J/bit/search]",
        x=[float(w) for w in WIDTHS],
        y_unit="J",
    )
    for spec in all_designs():
        fig.add_series(spec.name, [energy_per_bit(spec, w) for w in WIDTHS])
    return fig


def test_fig3_wordwidth(benchmark, save_artifact):
    fig = build_figure()
    save_artifact(EXPERIMENT_ID, fig.to_text())

    cmos = fig.series("cmos16t")
    fefet = fig.series("fefet2t")
    lv = fig.series("fefet2t_lv")
    cr = fig.series("fefet_cr")
    # Ordering holds at every width from 16 up (tiny arrays are SL-dominated).
    for i, width in enumerate(WIDTHS):
        if width >= 16:
            assert fefet[i] < cmos[i], width
            assert lv[i] < fefet[i], width
            assert cr[i] < fefet[i], width
    # The FeFET-vs-CMOS gap is >= 1.5x at the canonical 64-128 widths.
    for i, width in enumerate(WIDTHS):
        if width in (64, 128):
            assert cmos[i] / fefet[i] > 1.5

    from repro.core import get_design

    benchmark(lambda: energy_per_bit(get_design("fefet2t"), 64))
