"""R-F10: temperature sensitivity of margin and energy (25-125 C).

Regenerates the temperature figure: the FeFET design's sense margin and
search energy across the industrial temperature range.  Heat shifts
thresholds down and multiplies subthreshold leakage, so the matching
line droops faster (margin shrinks) and leakage energy grows, while the
switched-capacitance terms barely move.
"""

from __future__ import annotations

from repro.analysis.throughput import characterize
from repro.devices.temperature import TemperatureModel
from repro.reporting.series import FigureSeries
from repro.tcam import ArrayGeometry, TCAMArray
from repro.tcam.cells.fefet2t import FeFET2TCell, FeFET2TCellParams
from repro.units import celsius_to_kelvin

EXPERIMENT_ID = "R-F10_temperature"
GEO = ArrayGeometry(rows=16, cols=64)
CELSIUS = (25.0, 50.0, 75.0, 100.0, 125.0)


def array_at(celsius: float) -> TCAMArray:
    t_k = celsius_to_kelvin(celsius)
    model = TemperatureModel()
    base = FeFET2TCellParams()
    hot_params = FeFET2TCellParams(
        fefet=model.fefet_at(base.fefet, t_k),
        v_search=base.v_search,
        area_f2=base.area_f2,
    )
    cell = FeFET2TCell(hot_params, temperature_k=t_k)
    return TCAMArray(cell, GEO)


def measure(celsius: float) -> tuple[float, float]:
    array = array_at(celsius)
    energy = characterize(array, 3, seed=101).energy_per_search
    return array.sense_margin(), energy


def build_figures() -> tuple[FigureSeries, FigureSeries]:
    margins = []
    energies = []
    for celsius in CELSIUS:
        margin, energy = measure(celsius)
        margins.append(round(margin, 4))
        energies.append(energy)
    m_fig = FigureSeries(
        title="R-F10a: sense margin vs temperature (fefet2t, 16x64)",
        x_label="T [C]",
        y_label="margin [V]",
        x=list(CELSIUS),
    )
    m_fig.add_series("margin", margins)
    e_fig = FigureSeries(
        title="R-F10b: search energy vs temperature",
        x_label="T [C]",
        y_label="energy [J/search]",
        x=list(CELSIUS),
        y_unit="J",
    )
    e_fig.add_series("E_search", energies)
    return m_fig, e_fig


def test_fig10_temperature(benchmark, save_artifact):
    m_fig, e_fig = build_figures()
    save_artifact(EXPERIMENT_ID, m_fig.to_text() + "\n\n" + e_fig.to_text())

    margins = m_fig.series("margin")
    energies = e_fig.series("E_search")
    # Margin shrinks monotonically with temperature but stays functional.
    assert all(b <= a for a, b in zip(margins, margins[1:]))
    assert margins[-1] > 0.1
    # The hot corner loses < 40% of the room-temperature margin.
    assert margins[-1] > 0.6 * margins[0]
    # Energy moves only mildly (switched capacitance dominates leakage).
    assert energies[-1] < 1.5 * energies[0]

    benchmark(lambda: measure(75.0))
