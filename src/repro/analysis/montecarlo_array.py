"""Full per-cell Monte-Carlo array simulation (experiment R-F18).

The margin-based MC engine (:mod:`.montecarlo`) abstracts the array to
its worst-case line.  This module drops the abstraction: it instantiates
one complete FeFET array with a *sampled threshold offset in every cell*,
integrates each row's match line with its own per-cell current ensemble,
and strobes each row's (offset-sampled) sense amplifier.  Functional
errors are then *measured*, not inferred.

Two questions only this level can answer:

* does the worst-case margin abstraction predict the measured
  search-failure rate (validation of the cheaper engine), and
* how do errors depend on the workload's match-proximity profile -- rows
  with many mismatches are unconditionally safe; all the risk sits in
  full matches and near-misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..circuits.rc import discharge_waveform_batch
from ..devices.mosfet import ekv_current
from ..devices.variability import VariationSpec
from ..errors import AnalysisError
from ..tcam.array import ArrayGeometry
from ..tcam.cells.fefet2t import FeFET2TCell
from ..tcam.trit import TernaryWord, Trit, mismatch_counts_batch, trit_block
from ..units import thermal_voltage


@dataclass(frozen=True)
class ArrayMCResult:
    """Measured outcome of one sampled-array search campaign.

    Attributes:
        n_searches: Searches executed.
        n_row_decisions: Total row decisions (searches x rows).
        wrong_rows: Row decisions disagreeing with the ternary oracle.
        wrong_searches: Searches with at least one wrong row.
        errors_by_distance: ``{mismatch_count: wrong decisions}`` -- where
            the risk actually lives.
    """

    n_searches: int
    n_row_decisions: int
    wrong_rows: int
    wrong_searches: int
    errors_by_distance: dict[int, int]


def critical_keys(
    words: list[TernaryWord], rng: np.random.Generator, per_word: int = 2
) -> list[TernaryWord]:
    """Keys that exercise the sensing-critical corners of ``words``.

    For each stored word: one fully specified key that exactly matches it
    (X columns filled with random bits) and ``per_word - 1`` keys at
    ternary distance 1 (one specified column flipped).  Random keys never
    produce these corners -- a random 64-bit key sits ~16+ mismatches from
    everything, where no variation can flip a decision -- so a meaningful
    error campaign must plant them.
    """
    if per_word < 1:
        raise AnalysisError(f"per_word must be >= 1, got {per_word}")
    keys = []
    for word in words:
        filled = [
            Trit(int(rng.integers(0, 2))) if t is Trit.X else t for t in word
        ]
        keys.append(TernaryWord(filled))
        specified = [i for i, t in enumerate(word) if t is not Trit.X]
        for _ in range(per_word - 1):
            if not specified:
                break
            flip = int(rng.choice(specified))
            near = list(filled)
            near[flip] = Trit.ONE if filled[flip] is Trit.ZERO else Trit.ZERO
            keys.append(TernaryWord(near))
    return keys


class SampledFeFETArray:
    """One physical instance of a FeFET TCAM with per-cell variation.

    Args:
        geometry: Array shape.
        spec: Variation corner; every compare device draws its own
            threshold offset and each row's SA draws an input offset.
        rng: Sample source.

    The supply / precharge voltage ``vdd`` is 0.9 V.  The ML load, sense
    reference and evaluation window are the nominal fefet2t design's at
    this geometry and supply.
    """

    def __init__(
        self, geometry: ArrayGeometry, spec: VariationSpec, rng: np.random.Generator
    ) -> None:
        self.geometry = geometry
        self.vdd = 0.9
        self.cell = FeFET2TCell()
        f = self.cell.params.fefet
        self._phi_t = thermal_voltage(300.0)
        self._beta = f.kp * f.width / f.length

        rows, cols = geometry.rows, geometry.cols
        # One offset per compare FeFET: [row, col, device(A/B)].
        self._dvt = (
            rng.normal(0.0, spec.sigma_vt_fefet, size=(rows, cols, 2))
            if spec.sigma_vt_fefet > 0.0
            else np.zeros((rows, cols, 2))
        )
        self._sa_offset = (
            rng.normal(0.0, spec.sa_offset_sigma, size=rows)
            if spec.sa_offset_sigma > 0.0
            else np.zeros(rows)
        )
        self._stored = np.full((rows, cols), int(Trit.X), dtype=np.int8)

        # Borrow the nominal design's electrical configuration.
        from ..core.designs import build_array, get_design

        nominal = build_array(get_design("fefet2t"), geometry, vdd=self.vdd)
        self.c_ml = nominal.c_ml
        self.v_sense = nominal.sense_amp.v_ref
        self.t_eval = nominal.t_eval

    def load(self, words: list[TernaryWord]) -> None:
        """Store words row-major (no energy accounting at this level).

        The whole block is validated before any row is stored.

        Raises:
            TCAMError: for a word whose width is not the array's.
            AnalysisError: for more words than rows.
        """
        block = trit_block(words, self.geometry.cols, "SampledFeFETArray.load")
        if len(block) > self.geometry.rows:
            raise AnalysisError(
                f"SampledFeFETArray.load: {len(block)} words exceed "
                f"{self.geometry.rows} rows"
            )
        self._stored[: len(block)] = block

    # ------------------------------------------------------------------

    def _physical_row_decisions(self, block: np.ndarray) -> np.ndarray:
        """Strobe decisions of every row against every key, in one stacked pass.

        ``block`` is a ``(keys, cols)`` matrix of trit codes.  Line
        ``key * rows + row`` is one row searched by one key.  All lines'
        device ensembles are flattened into single threshold arrays
        carrying their line ids, every RK4 step evaluates the EKV model
        once over all devices of all lines (each at its own line
        voltage), and per-line currents come back via one ``bincount``.
        Each line carries its driven-LVT (mismatch) devices, the
        undriven LVT device of every matching specified cell (the
        dominant leak path, with its own sampled offset) and the driven
        HVT devices of its matching cells at the nominal subthreshold
        level.  Within a line, devices keep the one-key order (A devices,
        then B devices, each by column), so stacking more keys leaves
        every line's current sums unchanged.

        Returns:
            ``(keys, rows)`` boolean decisions (True reads as a match).
        """
        f = self.cell.params.fefet
        n_keys = block.shape[0]
        rows = self.geometry.rows
        n_lines = n_keys * rows
        stored = self._stored[np.newaxis, :, :]
        keys = block[:, np.newaxis, :]
        x = int(Trit.X)
        driven = keys != x
        specific = stored != x

        # Device A conducts when search==0 and stored==1 (A is LVT);
        # device B when search==1 and stored==0.
        miss_a = driven & specific & (keys == 0) & (stored == 1)
        miss_b = driven & specific & (keys == 1) & (stored == 0)
        match_mask = driven & ~(miss_a | miss_b)
        m1 = match_mask & specific & (stored == 1)
        m0 = match_mask & specific & (stored == 0)

        def devices(mask_a, mask_b):
            """Line ids and sampled offsets of the A then B devices."""
            key_a, rows_a, cols_a = np.nonzero(mask_a)
            key_b, rows_b, cols_b = np.nonzero(mask_b)
            lines = np.concatenate([key_a * rows + rows_a, key_b * rows + rows_b])
            dvt = np.concatenate(
                [self._dvt[rows_a, cols_a, 0], self._dvt[rows_b, cols_b, 1]]
            )
            return lines, f.vt_lvt + dvt

        on_lines, vt_on = devices(miss_a, miss_b)
        leak_lines, vt_leak = devices(m1, m0)
        n_hvt = np.count_nonzero(match_mask, axis=2).astype(float).ravel()

        i_hvt_nominal = ekv_current(
            self.cell.params.v_search, self.vdd, f.vt_hvt,
            self._beta, f.n_slope, self._phi_t, f.lambda_cl,
        )
        v_search = self.cell.params.v_search

        def currents(v: np.ndarray) -> np.ndarray:
            # Elements at or below the floor have their derivative masked
            # off by the integrator; clamp them so the EKV model never
            # sees a negative vds.
            v = np.maximum(v, 0.0)
            total = np.zeros(n_lines)
            if vt_on.size:
                i_on = ekv_current(
                    v_search, v[on_lines], vt_on, self._beta,
                    f.n_slope, self._phi_t, f.lambda_cl,
                )
                total += np.bincount(on_lines, weights=i_on, minlength=n_lines)
            if vt_leak.size:
                i_lk = ekv_current(
                    0.0, v[leak_lines], vt_leak, self._beta,
                    f.n_slope, self._phi_t, f.lambda_cl,
                )
                total += np.bincount(leak_lines, weights=i_lk, minlength=n_lines)
            total += n_hvt * i_hvt_nominal * np.where(v < self.vdd, v / self.vdd, 1.0)
            return total

        with obs.span("mc.row_batch", keys=n_keys, rows=rows):
            m = obs.metrics()
            if m is not None:
                m.counter("mc.row_decisions").inc(n_lines)
                m.histogram("mc.rows_per_batch").observe(n_lines)
            grid = np.linspace(0.0, self.t_eval, 33)
            v_end = discharge_waveform_batch(
                self.c_ml, currents, np.full(n_lines, self.vdd), grid
            )
        decisions = v_end > self.v_sense + np.tile(self._sa_offset, n_keys)
        # Fully masked lines cannot move and always read as a match.
        loaded = np.zeros(n_lines, dtype=bool)
        loaded[on_lines] = True
        loaded[leak_lines] = True
        decisions[~loaded & (n_hvt == 0)] = True
        return decisions.reshape(n_keys, rows)

    def run_campaign(self, keys: list[TernaryWord]) -> ArrayMCResult:
        """Search every key; measure disagreements with the ternary oracle.

        Every key is checked for width before any line integrates, and
        the whole campaign integrates in one stacked pass.

        Raises:
            AnalysisError: for an empty campaign.
            TCAMError: for a key whose width is not the array's.
        """
        block = trit_block(keys, self.geometry.cols, "SampledFeFETArray.run_campaign")
        if not len(block):
            raise AnalysisError("campaign needs at least one key")
        rows = self.geometry.rows
        with obs.span(
            "mc.campaign", n_keys=len(block), rows=rows, cols=self.geometry.cols
        ) as sp:
            m = obs.metrics()
            if m is not None:
                m.counter("mc.samples").inc(len(block))
            distances = mismatch_counts_batch(self._stored, block)
            wrong = self._physical_row_decisions(block) != (distances == 0)
            wrong_rows = int(np.count_nonzero(wrong))
            wrong_searches = int(np.count_nonzero(wrong.any(axis=1)))
            if sp is not None:
                sp.annotate(wrong_rows=wrong_rows, wrong_searches=wrong_searches)
        by_distance = np.unique(distances[wrong], return_counts=True)
        return ArrayMCResult(
            n_searches=len(block),
            n_row_decisions=len(block) * rows,
            wrong_rows=wrong_rows,
            wrong_searches=wrong_searches,
            errors_by_distance={int(d): int(n) for d, n in zip(*by_distance)},
        )
