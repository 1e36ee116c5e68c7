"""Workload-driven design advisor.

The library exposes many knobs -- six designs, the LV swing, probe
segmentation, power gating.  :func:`advise` closes the loop: given a
:class:`WorkloadProfile` (array shape, search rate, match statistics,
latency bound, robustness requirement) it measures every candidate
configuration on a matching synthetic workload and recommends the one
minimizing *total* (dynamic + standby-amortized) energy per search,
subject to the latency and margin constraints.

This is deliberately measurement-based rather than rule-based: every
recommendation is backed by the same simulation the benchmarks run, so
the advisor can never disagree with the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.montecarlo import run_margin_mc
from ..analysis.throughput import characterize
from ..devices.variability import NOMINAL_VARIATION
from ..errors import DesignError
from ..tcam.array import ArrayGeometry
from .designs import all_designs, build_array


@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about the deployment.

    Attributes:
        rows: Stored entries.
        cols: Trits per entry.
        x_fraction: Stored don't-care density.
        searches_per_second: Sustained search rate [1/s].
        max_latency: Hard key-to-result latency bound [s].
        require_failure_free_mc: Demand zero Monte-Carlo line failures at
            the nominal variation corner (n=200).
        nonvolatile_required: Exclude volatile (SRAM-based) designs,
            e.g. for instant-on or power-gated deployments.
    """

    rows: int = 128
    cols: int = 64
    x_fraction: float = 0.3
    searches_per_second: float = 1e8
    max_latency: float = 2e-9
    require_failure_free_mc: bool = True
    nonvolatile_required: bool = False

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DesignError("profile geometry must be at least 1x1")
        if self.searches_per_second <= 0.0:
            raise DesignError("search rate must be positive")
        if self.max_latency <= 0.0:
            raise DesignError("latency bound must be positive")


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration.

    Attributes:
        design: Registry key.
        total_energy_per_search: Dynamic + standby-amortized energy [J].
        search_delay: Measured latency [s].
        meets_latency: Latency bound satisfied.
        meets_robustness: MC requirement satisfied (or not demanded).
        excluded_reason: Why the candidate was ruled out, or ``None``.
    """

    design: str
    total_energy_per_search: float
    search_delay: float
    meets_latency: bool
    meets_robustness: bool
    excluded_reason: str | None

    @property
    def feasible(self) -> bool:
        """Candidate satisfies every constraint."""
        return self.excluded_reason is None


@dataclass(frozen=True)
class Recommendation:
    """The advisor's answer.

    Attributes:
        best: The chosen candidate.
        candidates: Every evaluated candidate (diagnostics).
    """

    best: Candidate
    candidates: tuple[Candidate, ...]


def _evaluate(spec, profile: WorkloadProfile, n_searches: int, seed: int) -> Candidate:
    array = build_array(spec, ArrayGeometry(profile.rows, profile.cols))
    report = characterize(array, n_searches, profile.x_fraction, seed)
    delay = report.search_delay
    # Standby amortization over the idle interval at the profile's rate.
    interval = 1.0 / profile.searches_per_second
    total = report.energy_per_search + array.standby_power() * max(interval - delay, 0.0)

    meets_latency = delay <= profile.max_latency
    meets_robustness = True
    if profile.require_failure_free_mc and spec.sensing == "precharge":
        mc = run_margin_mc(array, NOMINAL_VARIATION, n_samples=200, seed=seed)
        meets_robustness = mc.failure_rate == 0.0

    reason = None
    if report.functional_errors:
        reason = "nominal functional errors"
    elif profile.nonvolatile_required and not array.cell.nonvolatile:
        reason = "volatile storage"
    elif not meets_latency:
        reason = f"latency {delay:.2e} s exceeds bound"
    elif not meets_robustness:
        reason = "Monte-Carlo failures at nominal variation"
    return Candidate(
        design=spec.name,
        total_energy_per_search=total,
        search_delay=delay,
        meets_latency=meets_latency,
        meets_robustness=meets_robustness,
        excluded_reason=reason,
    )


def advise(
    profile: WorkloadProfile, n_searches: int = 4, seed: int = 404
) -> Recommendation:
    """Measure every design against the profile and recommend the best.

    Raises:
        DesignError: when ``n_searches`` < 1, or when no design satisfies
            the profile's constraints (the message lists each exclusion
            reason).
    """
    if n_searches < 1:
        raise DesignError(f"n_searches must be >= 1, got {n_searches}")
    candidates = [
        _evaluate(spec, profile, n_searches, seed) for spec in all_designs()
    ]
    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        reasons = "; ".join(f"{c.design}: {c.excluded_reason}" for c in candidates)
        raise DesignError(f"no design satisfies the profile ({reasons})")
    best = min(feasible, key=lambda c: c.total_energy_per_search)
    return Recommendation(best=best, candidates=tuple(candidates))
