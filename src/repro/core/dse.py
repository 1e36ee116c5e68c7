"""Design-space exploration and Pareto extraction (experiment R-F9).

The explored axes:

* design family (all five registry entries),
* ML swing for the precharge FeFET designs (Design LV's knob),
* supply voltage.

Each point is evaluated on the canonical random workload
(:func:`~repro.analysis.throughput.characterize`) for energy per
search, search delay and sense margin (robustness proxy).  The Pareto
front minimizes energy and delay while maximizing margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.dse import dominates as _dominates
from ..analysis.throughput import characterize
from ..errors import DesignError
from ..tcam.array import ArrayGeometry
from .designs import DesignSpec, all_designs, build_array

_MINIMIZE = ("energy_per_search", "search_delay")
_MAXIMIZE = ("margin",)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration.

    Attributes:
        design: Registry key.
        v_ml: ML swing [V] (``None`` for current-race sensing).
        vdd: Supply [V].
        energy_per_search: Mean canonical search energy [J].
        search_delay: Search latency [s].
        margin: Sense margin [V] (current-race points report the race
            timing slack converted to volts-equivalent via the trip point).
        functional: Whether the nominal configuration searches correctly.
    """

    design: str
    v_ml: float | None
    vdd: float
    energy_per_search: float
    search_delay: float
    margin: float
    functional: bool

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse on all three axes, better on one.

        A functional point dominates a non-functional one; otherwise the
        shared rule (:func:`repro.analysis.dse.dominates`) decides on
        energy and delay (minimized) and margin (maximized).
        """
        if not (self.functional and other.functional):
            return self.functional and not other.functional
        return _dominates(vars(self), vars(other), _MINIMIZE, _MAXIMIZE)


@dataclass(frozen=True)
class ParetoFront:
    """The explored points and their non-dominated subset.

    Attributes:
        points: Every evaluated point.
        front: The non-dominated (Pareto-optimal) points.
    """

    points: tuple[DesignPoint, ...]
    front: tuple[DesignPoint, ...]


def _evaluate(
    spec: DesignSpec,
    geometry: ArrayGeometry,
    vdd: float,
    v_ml: float | None,
    n_searches: int,
    seed: int,
) -> DesignPoint:
    array = build_array(spec, geometry, vdd=vdd, ml_swing=v_ml)
    report = characterize(array, n_searches, seed=seed)
    if spec.sensing == "current_race":
        # Race margin: timing slack of a matching line against the window,
        # expressed as the extra trip-point voltage it could have absorbed.
        race = array.race_amp
        i_leak_total = geometry.cols * array.cell.i_leak(race.v_trip)
        net = race.i_race - i_leak_total
        if net <= 0.0:
            margin = 0.0
        else:
            v_reach = net * race.t_window / array.c_ml
            margin = max(v_reach - race.v_trip, 0.0)
    else:
        # Precharge: ML swing margin; NAND: broken vs conducting string.
        margin = array.sense_margin()
    return DesignPoint(
        design=spec.name,
        v_ml=v_ml,
        vdd=vdd,
        energy_per_search=report.energy_per_search,
        search_delay=report.search_delay,
        margin=margin,
        functional=report.functional_errors == 0,
    )


def explore(
    geometry: ArrayGeometry,
    ml_swings: tuple[float, ...] = (0.35, 0.45, 0.55, 0.7, 0.9),
    n_searches: int = 6,
    seed: int = 77,
) -> ParetoFront:
    """Sweep the design space at a 0.9 V supply and extract the Pareto front.

    Args:
        geometry: Array shape every point is evaluated at.
        ml_swings: Swing values applied to the FeFET precharge designs.
        n_searches: Canonical searches per point.
        seed: Workload seed (identical across points).
    """
    if n_searches < 1:
        raise DesignError(f"n_searches must be >= 1, got {n_searches}")
    vdd = 0.9
    points: list[DesignPoint] = []
    for spec in all_designs():
        if spec.name == "fefet2t_lv":
            for swing in ml_swings:
                if swing <= vdd:
                    points.append(_evaluate(spec, geometry, vdd, swing, n_searches, seed))
        else:
            points.append(_evaluate(spec, geometry, vdd, None, n_searches, seed))

    front = tuple(
        p
        for p in points
        if p.functional and not any(q.dominates(p) for q in points)
    )
    return ParetoFront(points=tuple(points), front=front)
