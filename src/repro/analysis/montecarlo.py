"""Monte-Carlo sense-margin analysis (experiment R-F6).

Each sample draws:

* a threshold offset for the critical mismatching device (Pelgrom-like
  normal, ``sigma_vt``),
* a lognormal-ish aggregate leakage factor for the match side: every
  matching cell's subthreshold current scales ``exp(-dVT / (n * phi_t))``
  with its own offset, so the sum over the word is computed exactly from
  per-cell draws,
* a sense-amplifier input offset.

Every sampled corner integrates exactly as the deterministic margin
primitive (:func:`~.margin.worst_case_margin`, the per-sample test
oracle) would integrate it alone, so the MC distribution is consistent
with the nominal numbers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..circuits.matchline import composite_current
from ..devices.variability import VariationSpec
from ..errors import AnalysisError
from ..parallel import chunk_bounds, spawn_seeds
from ..tcam.array import TCAMArray
from ..units import thermal_voltage

#: Samples per Monte-Carlo chunk.  Each chunk draws from its own seed
#: child of the root seed, so this constant fixes the random stream: the
#: sampled margins depend on it, not on how the chunks are integrated.
MC_CHUNK_SAMPLES = 256


@dataclass(frozen=True)
class MonteCarloResult:
    """Distribution-level outcome of a margin MC run.

    Attributes:
        margins: Sampled margins [V], shape ``(n_samples,)``.
        failures: Per-sample functional failures (bool array).
        failure_rate: Fraction of failing samples.
        margin_mean: Mean margin [V].
        margin_sigma: Std-dev of the margin [V].
        n_samples: Sample count.
    """

    margins: np.ndarray
    failures: np.ndarray
    failure_rate: float
    margin_mean: float
    margin_sigma: float
    n_samples: int

    def margin_percentile(self, q: float) -> float:
        """Margin at percentile ``q`` (0-100)."""
        if not 0.0 <= q <= 100.0:
            raise AnalysisError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.margins, q))


def check_count(value, name: str) -> int:
    """``value`` as an int >= 1, or :class:`AnalysisError` naming ``name``
    when it is not a Python/NumPy integer (bools and floats included) or
    below 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise AnalysisError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise AnalysisError(f"{name} must be >= 1, got {value}")
    return int(value)


def _leak_scale_factor(
    spec: VariationSpec,
    cols: int,
    n_slope: float,
    temperature_k: float,
    rng: np.random.Generator,
    vt_to_on: float = 0.40,
) -> float:
    """Aggregate match-side leakage multiplier for one sample.

    Subthreshold current scales exponentially with the threshold offset --
    but only until the device reaches its threshold; beyond that the
    current saturates instead of growing another decade per ``n*phi_t``.
    The per-cell factor is therefore capped at ``exp(vt_to_on / (n*phi_t))``,
    the subthreshold-to-on ratio of the leak path (0.40 V for the default
    cell's undriven-LVT device).  Without the cap the engine overstates
    failures by orders of magnitude at scaled sigma -- measured directly
    by the full-array simulator (experiment R-F18).
    """
    if spec.sigma_vt_fefet == 0.0:
        return 1.0
    phi_t = thermal_voltage(temperature_k)
    offsets = rng.normal(0.0, spec.sigma_vt_fefet, size=cols)
    exponents = np.minimum(-offsets / (n_slope * phi_t), vt_to_on / (n_slope * phi_t))
    factors = np.exp(exponents)
    return float(np.mean(factors))


def _sample_chunk(
    array: TCAMArray,
    spec: VariationSpec,
    seed_seq: np.random.SeedSequence,
    count: int,
    n_slope: float,
    temperature_k: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw and evaluate one chunk of margin samples.

    Each sample draws, in this order, its critical pull-down offset, its
    match-side leakage factor and its sense-amplifier offset.  The match
    and 1-miss corners of every sample then integrate in one stacked
    pass through the array's own line integrator; each line is bit for
    bit the scalar :func:`~.margin.worst_case_margin` evaluation of its
    sample.
    """
    rng = np.random.default_rng(seed_seq)
    cols = array.geometry.cols
    v_pre = array.precharge.target_voltage()
    dvt_pd = np.zeros(count)
    leak_scale = np.empty(count)
    sa_off = np.zeros(count)
    for k in range(count):
        # Positive offset on the critical pull-down weakens it (bad);
        # the draw is two-sided, matching physical mismatch.
        if spec.sigma_vt_fefet:
            dvt_pd[k] = rng.normal(0.0, spec.sigma_vt_fefet)
        leak_scale[k] = _leak_scale_factor(spec, cols, n_slope, temperature_k, rng)
        if spec.sa_offset_sigma:
            sa_off[k] = rng.normal(0.0, spec.sa_offset_sigma)
    v_sense = np.minimum(np.maximum(array.sense_amp.v_ref + sa_off, 1e-3), v_pre - 1e-3)

    # Lines [0, count) are the match corners, [count, 2 * count) the
    # 1-miss corners of the same samples.
    dvt = np.concatenate([dvt_pd, dvt_pd])
    leak = np.concatenate([leak_scale, leak_scale])
    n_miss = np.repeat([0, 1], count)
    n_match = cols - n_miss
    cell = array.cell
    v_end = array._integrate_lines(
        lambda v: composite_current(
            v,
            lambda u: cell.i_pulldown(u, vt_offset=dvt),
            lambda u: leak * cell.i_leak(u),
            n_miss,
            n_match,
        ),
        2 * count,
    )
    v_match, v_miss = v_end[:count], v_end[count:]
    return v_match - v_miss, ~((v_match > v_sense) & (v_miss < v_sense))


def run_margin_mc(
    array: TCAMArray,
    spec: VariationSpec,
    n_samples: int = 1000,
    seed: int = 2021,
    n_slope: float = 1.35,
    temperature_k: float = 300.0,
) -> MonteCarloResult:
    """Sample the match / 1-mismatch margin of a precharge-style array.

    Samples are drawn in fixed-size chunks (:data:`MC_CHUNK_SAMPLES`),
    each from its own ``SeedSequence`` child of ``seed``, and each chunk
    integrates all its sample corners in one stacked pass.  Under an
    observability session the run is one ``mc.margin`` span.

    Args:
        array: The array configuration under test (cell, c_ml, t_eval,
            precharge target and sense reference are read from it).
        spec: Variation corner to sample.
        n_samples: Monte-Carlo sample count.
        seed: RNG seed.
        n_slope: Subthreshold slope factor used for the leakage statistics.
        temperature_k: Temperature for the leakage statistics [K].

    Raises:
        AnalysisError: for current-race and NAND arrays (different
            failure models) or a sample count that is not an integer >= 1.
    """
    if not isinstance(array, TCAMArray) or array.sensing != "precharge":
        raise AnalysisError("margin MC applies to precharge-style sensing")
    n_samples = check_count(n_samples, "run_margin_mc: n_samples")

    bounds = chunk_bounds(n_samples, MC_CHUNK_SAMPLES)
    seeds = spawn_seeds(seed, len(bounds))
    with obs.span("mc.margin", n_samples=n_samples, chunks=len(bounds)):
        chunks = [
            _sample_chunk(array, spec, s, hi - lo, n_slope, temperature_k)
            for s, (lo, hi) in zip(seeds, bounds)
        ]
    margins = np.concatenate([c[0] for c in chunks])
    failures = np.concatenate([c[1] for c in chunks])

    return MonteCarloResult(
        margins=margins,
        failures=failures,
        failure_rate=float(np.mean(failures)),
        margin_mean=float(np.mean(margins)),
        margin_sigma=float(np.std(margins)),
        n_samples=n_samples,
    )
