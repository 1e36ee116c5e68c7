"""Fault-density reliability campaigns (experiment R-F19).

The campaign answers the deployment question for one design: as cell
defects accumulate, how fast do lookups go wrong, what does a faulty
search cost relative to golden, and how much does a repair mechanism
buy back?

Structure of one campaign:

* Each **trial** is an independent draw: fresh stored content, fresh
  search keys (the sensing-critical corners of
  :func:`~repro.analysis.montecarlo_array.critical_keys` plus random
  fill), and one :class:`~repro.faults.campaign.FaultPlan` drawn in the
  requested generator mode.  The plan's nested structure guarantees the
  fault set at a lower density is a subset of the set at a higher one,
  so per-trial error counts are monotone in density by construction.
* Each **density point** of a trial compares golden vs fault-injected
  searches -- each instance answers the trial's keys in one
  ``search_batch`` call, a faulted one on the fault-aware kernel that
  is bit-identical to the per-key faulty reference -- row by row (false matches / false misses over all
  ``keys x rows`` decisions, search-energy delta), applies the repair
  policy to a fresh faulty instance and measures post-repair yield:
  the fraction of keys whose matched row set -- relocated through the
  repair's ``row_map`` where applicable -- equals the golden set.
* Every instance of a trial is electrically identical to its golden
  instance and adopts the golden kernel tables
  (:meth:`~repro.kernels.KernelEngine.adopt_tables`), so a trial
  compiles each driven row once and integrates each fault signature
  once, across all of its densities and repairs.
* Trials fan out over :func:`repro.parallel.scatter_gather` and are
  aggregated in payload order, so campaign results are bit-identical
  for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import AnalysisError
from ..faults import FaultCampaign, GENERATOR_MODES, REPAIR_POLICIES, get_policy
from ..parallel import scatter_gather, spawn_seeds
from ..tcam.array import ArrayGeometry, TCAMArray
from ..tcam.trit import TernaryWord, random_word
from .montecarlo_array import critical_keys

#: Fraction of stored trits wildcarded in the campaign's random content.
_X_FRACTION = 0.1

#: Extra rewrites of the hot half of the rows in ``wear`` mode, so the
#: wear-proportional generator has an actual usage gradient to follow.
_WEAR_REWRITES = 3


@dataclass(frozen=True)
class FaultDensityPoint:
    """Aggregated campaign measurements at one fault density.

    Attributes:
        density: Cell-fault density the plans were materialized at.
        n_faulty_cells: Faulty cells summed over all trials.
        decisions: Row decisions compared (trials x keys x rows).
        false_matches: Faulty-said-match / golden-said-miss decisions.
        false_misses: Golden-said-match / faulty-said-miss decisions.
        golden_energy: Golden search energy summed over trials [J].
        faulty_energy: Fault-injected search energy, same searches [J].
        repaired_rows: Rows the repair policy fixed, summed over trials.
        unrepaired_rows: Faulty valid rows left broken, summed.
        repair_energy: Energy booked under the ``repair`` component [J].
        yield_keys: Keys whose post-repair match set equals golden.
        total_keys: Keys checked for yield (trials x keys).
    """

    density: float
    n_faulty_cells: int
    decisions: int
    false_matches: int
    false_misses: int
    golden_energy: float
    faulty_energy: float
    repaired_rows: int
    unrepaired_rows: int
    repair_energy: float
    yield_keys: int
    total_keys: int

    @property
    def false_match_rate(self) -> float:
        """False matches per row decision."""
        return self.false_matches / self.decisions

    @property
    def false_miss_rate(self) -> float:
        """False misses per row decision."""
        return self.false_misses / self.decisions

    @property
    def energy_delta(self) -> float:
        """Relative search-energy change of the faulty array."""
        return (self.faulty_energy - self.golden_energy) / self.golden_energy

    @property
    def post_repair_yield(self) -> float:
        """Fraction of lookups fully restored after repair."""
        return self.yield_keys / self.total_keys

    def to_dict(self) -> dict:
        return {
            "density": float(self.density),
            "n_faulty_cells": int(self.n_faulty_cells),
            "decisions": int(self.decisions),
            "false_matches": int(self.false_matches),
            "false_misses": int(self.false_misses),
            "false_match_rate": float(self.false_match_rate),
            "false_miss_rate": float(self.false_miss_rate),
            "golden_energy": float(self.golden_energy),
            "faulty_energy": float(self.faulty_energy),
            "energy_delta": float(self.energy_delta),
            "repaired_rows": int(self.repaired_rows),
            "unrepaired_rows": int(self.unrepaired_rows),
            "repair_energy": float(self.repair_energy),
            "post_repair_yield": float(self.post_repair_yield),
        }


@dataclass(frozen=True)
class FaultCampaignResult:
    """One full density sweep.

    Attributes:
        design: Design name the arrays were built from.
        rows: Array rows (including the spare region).
        cols: Trits per row.
        mode: Fault-plan generator mode.
        repair: Repair policy name.
        n_spare: Spare rows reserved (spare-row policy).
        n_trials: Independent trials aggregated per point.
        n_keys: Search keys per trial.
        seed: Root campaign seed.
        points: One aggregate per swept density, in sweep order.
    """

    design: str
    rows: int
    cols: int
    mode: str
    repair: str
    n_spare: int
    n_trials: int
    n_keys: int
    seed: int
    points: list[FaultDensityPoint]

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "rows": int(self.rows),
            "cols": int(self.cols),
            "mode": self.mode,
            "repair": self.repair,
            "n_spare": int(self.n_spare),
            "n_trials": int(self.n_trials),
            "n_keys": int(self.n_keys),
            "seed": int(self.seed),
            "points": [p.to_dict() for p in self.points],
        }


def _build_loaded(
    design: str, rows: int, cols: int, words: list[TernaryWord]
) -> TCAMArray:
    from ..core.designs import build_array, get_design

    array = build_array(get_design(design), ArrayGeometry(rows, cols))
    array.load(words)
    return array


def _trial_content(
    rng: np.random.Generator, rows_loaded: int, cols: int, mode: str, n_keys: int
) -> tuple[list[TernaryWord], list[TernaryWord], list[tuple[int, TernaryWord]]]:
    """Stored words, search keys and the wear-mode rewrite schedule.

    Everything content-related is drawn here, from one stream, so a
    trial is reproducible from its seed alone.  The rewrite schedule
    (row, word) is replayed onto every array instance of the trial --
    the final write wins, keeping golden and faulty content identical
    while the write *history* builds the usage gradient ``wear`` mode
    samples from.
    """
    words = [random_word(cols, rng, x_fraction=_X_FRACTION) for _ in range(rows_loaded)]
    rewrites: list[tuple[int, TernaryWord]] = []
    if mode == "wear":
        hot = max(1, rows_loaded // 2)
        for _ in range(_WEAR_REWRITES):
            for row in range(hot):
                rewrites.append((row, random_word(cols, rng, x_fraction=_X_FRACTION)))
        for row, word in rewrites:
            words[row] = word  # final content after replay
    keys = critical_keys(words, rng, per_word=2)[:n_keys]
    while len(keys) < n_keys:
        keys.append(random_word(cols, rng))
    return words, keys, rewrites


def _fresh_instance(
    design: str,
    rows: int,
    cols: int,
    words: list[TernaryWord],
    rewrites: list[tuple[int, TernaryWord]],
) -> TCAMArray:
    """One array instance of the trial, with the full write history."""
    array = _build_loaded(design, rows, cols, [w for w in words])
    for row, word in rewrites:
        array.write(row, word)
    return array


def _fault_trial(
    payload: tuple[
        str,
        int,
        int,
        int,
        tuple[float, ...],
        str,
        str,
        int,
        np.random.SeedSequence,
    ],
) -> list[dict]:
    """Run one trial over every density (pure worker fn).

    Returns one raw-count dict per density, in sweep order; the parent
    sums them across trials.
    """
    (
        design,
        rows,
        cols,
        n_spare,
        densities,
        mode,
        repair,
        n_keys,
        seed_seq,
    ) = payload
    rng = np.random.default_rng(seed_seq)
    rows_loaded = rows - n_spare
    words, keys, rewrites = _trial_content(rng, rows_loaded, cols, mode, n_keys)

    golden = _fresh_instance(design, rows, cols, words, rewrites)
    campaign = FaultCampaign(rows, cols)
    plan = campaign.draw(
        mode, rng, wear_counts=golden.wear_counts() if mode == "wear" else None
    )
    golden_outs = golden.search_batch(keys)
    golden_sets = [
        frozenset(int(r) for r in np.flatnonzero(o.match_mask)) for o in golden_outs
    ]
    golden_energy = sum(o.energy.total for o in golden_outs)

    results = []
    for density in densities:
        fault_map = plan.at_density(density)

        faulty = _fresh_instance(design, rows, cols, words, rewrites)
        faulty.kernel.adopt_tables(golden.kernel)
        faulty.attach_faults(fault_map)
        false_match = 0
        false_miss = 0
        faulty_energy = 0.0
        for gold, out in zip(golden_outs, faulty.search_batch(keys)):
            false_match += int(np.count_nonzero(out.match_mask & ~gold.match_mask))
            false_miss += int(np.count_nonzero(gold.match_mask & ~out.match_mask))
            faulty_energy += out.energy.total

        repaired = _fresh_instance(design, rows, cols, words, rewrites)
        repaired.kernel.adopt_tables(golden.kernel)
        repaired.attach_faults(fault_map.copy())
        report = get_policy(repair, n_spare=n_spare).repair(repaired, repaired.faults)
        yield_keys = 0
        for gold_set, out in zip(golden_sets, repaired.search_batch(keys)):
            want = {report.row_map.get(r, r) for r in gold_set}
            got = set(int(r) for r in np.flatnonzero(out.match_mask))
            yield_keys += want == got

        results.append(
            {
                "n_faulty_cells": fault_map.n_faulty_cells(),
                "decisions": len(keys) * rows,
                "false_matches": false_match,
                "false_misses": false_miss,
                "golden_energy": golden_energy,
                "faulty_energy": faulty_energy,
                "repaired_rows": len(report.repaired_rows),
                "unrepaired_rows": len(report.unrepaired_rows),
                "repair_energy": report.energy.total,
                "yield_keys": yield_keys,
                "total_keys": len(keys),
            }
        )
    return results


def run_fault_campaign(
    design: str = "fefet2t",
    rows: int = 32,
    cols: int = 32,
    densities: tuple[float, ...] = (0.01, 0.02, 0.05),
    mode: str = "random",
    repair: str = "spare-rows",
    n_spare: int = 4,
    n_trials: int = 4,
    n_keys: int = 24,
    seed: int = 20260805,
    workers: int = 0,
) -> FaultCampaignResult:
    """Sweep fault density; measure error rates, energy delta and yield.

    Each trial covers *all* densities with one nested fault plan, so the
    per-trial (and hence aggregated) false-match and false-miss counts
    are non-decreasing in density -- the property the CI smoke gate
    asserts.  Trials fan out across processes and aggregate in payload
    order: results are bit-identical for any ``workers`` value.

    Args:
        design: Design registry name to build every array from.
        rows: Physical rows (content loads into ``rows - n_spare``).
        cols: Trits per row.
        densities: Cell-fault densities to sweep, in report order.
        mode: Fault-plan generator (one of ``random``/``clustered``/``wear``).
        repair: Repair policy (one of ``none``/``spare-rows``/``mask``).
        n_spare: Rows reserved for the spare-row policy (also kept
            unloaded under the other policies, for comparability).
        n_trials: Independent trials per density point.
        n_keys: Search keys per trial (critical corners + random fill).
        seed: Root seed; trials draw from its spawned children.
        workers: Process count for the trial fan-out; ``<= 1`` serial.

    Raises:
        AnalysisError: on an empty/invalid sweep configuration.
    """
    from ..core.designs import DESIGN_NAMES, get_design

    if design not in DESIGN_NAMES:
        raise AnalysisError(f"design must be one of {DESIGN_NAMES}, got {design!r}")
    if get_design(design).sensing == "nand":
        raise AnalysisError(
            "the serial NAND array has no fault-injection hooks; "
            "pick a parallel-sensing design"
        )
    if mode not in GENERATOR_MODES:
        raise AnalysisError(f"mode must be one of {GENERATOR_MODES}, got {mode!r}")
    if repair not in REPAIR_POLICIES:
        raise AnalysisError(
            f"repair must be one of {REPAIR_POLICIES}, got {repair!r}"
        )
    if not densities:
        raise AnalysisError("need at least one fault density")
    if any(not 0.0 <= d <= 1.0 for d in densities):
        raise AnalysisError(f"densities must lie in [0, 1], got {densities}")
    if n_trials < 1:
        raise AnalysisError(f"n_trials must be >= 1, got {n_trials}")
    if n_keys < 1:
        raise AnalysisError(f"n_keys must be >= 1, got {n_keys}")
    if not 0 <= n_spare < rows:
        raise AnalysisError(f"n_spare must be in [0, {rows}), got {n_spare}")

    densities = tuple(float(d) for d in densities)
    with obs.span(
        "faults.campaign",
        design=design,
        rows=rows,
        cols=cols,
        mode=mode,
        repair=repair,
        n_trials=n_trials,
        n_densities=len(densities),
    ):
        m = obs.metrics()
        if m is not None:
            m.counter("faults.trials").inc(n_trials)
        seeds = spawn_seeds(seed, n_trials)
        payloads = [
            (design, rows, cols, n_spare, densities, mode, repair, n_keys, s)
            for s in seeds
        ]
        per_trial = scatter_gather(
            _fault_trial, payloads, workers=workers, span_prefix="faults.trial"
        )

    points = []
    for j, density in enumerate(densities):
        raws = [trial[j] for trial in per_trial]
        points.append(
            FaultDensityPoint(
                density=density,
                n_faulty_cells=sum(r["n_faulty_cells"] for r in raws),
                decisions=sum(r["decisions"] for r in raws),
                false_matches=sum(r["false_matches"] for r in raws),
                false_misses=sum(r["false_misses"] for r in raws),
                golden_energy=sum(r["golden_energy"] for r in raws),
                faulty_energy=sum(r["faulty_energy"] for r in raws),
                repaired_rows=sum(r["repaired_rows"] for r in raws),
                unrepaired_rows=sum(r["unrepaired_rows"] for r in raws),
                repair_energy=sum(r["repair_energy"] for r in raws),
                yield_keys=sum(r["yield_keys"] for r in raws),
                total_keys=sum(r["total_keys"] for r in raws),
            )
        )
    return FaultCampaignResult(
        design=design,
        rows=rows,
        cols=cols,
        mode=mode,
        repair=repair,
        n_spare=n_spare,
        n_trials=n_trials,
        n_keys=n_keys,
        seed=seed,
        points=points,
    )
