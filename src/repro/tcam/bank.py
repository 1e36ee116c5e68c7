"""Segmented (hierarchical) search -- selective precharge at bank level.

The match line of a ``cols``-wide word is split into a short *probe*
segment and a long *tail* segment.  Stage 1 searches the probe columns on
every row; only rows that survive stage 1 have their tail segment
precharged and evaluated in stage 2.  Because a random probe of ``s``
specified columns eliminates all but ~``2^-s`` of the rows, the expensive
tail MLs are almost never exercised -- this is the segmentation /
selective-precharge technique of DESIGN.md (#2) and the ablation table
R-T2.

The implementation composes two :class:`~repro.tcam.array.TCAMArray`
instances over a shared logical address space and passes stage-1 survivors
as the ``row_mask`` of stage 2, so the energy accounting is exact rather
than a scaling approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..energy.accounting import EnergyLedger
from ..errors import TCAMError
from ..faults.faultmap import FaultMap
from .array import ArrayGeometry, SearchOutcome, TCAMArray
from .cell import CellDescriptor
from .outcome import BaseOutcome
from .trit import TernaryWord, trit_block


@dataclass(frozen=True)
class SegmentedSearchOutcome(BaseOutcome):
    """Result of a two-stage segmented search.

    Attributes:
        match_mask: Final per-row verdicts.
        first_match: Lowest matching row, or ``None``.
        energy: Merged two-stage ledger.
        search_delay: Serial stage-1 + stage-2 latency [s].
        cycle_time: Serial cycle time [s].
        survivors_stage1: Rows that passed the probe segment.
        stage2_skipped: True when stage 2 was skipped (no survivors).
    """

    match_mask: np.ndarray
    first_match: int | None
    energy: EnergyLedger
    search_delay: float
    cycle_time: float
    survivors_stage1: int
    stage2_skipped: bool

    def _extra_dict(self) -> dict:
        return {
            "survivors_stage1": int(self.survivors_stage1),
            "stage2_skipped": bool(self.stage2_skipped),
        }


class SegmentedBank:
    """A TCAM bank with a two-segment match line.

    Args:
        cell: Cell technology (shared by both segments).
        geometry: Logical shape (rows x total cols).
        probe_cols: Width of the stage-1 probe segment.
        early_terminate: Skip stage 2 entirely when stage 1 leaves no
            survivors (technique #3).
        array_kwargs: Extra keyword arguments forwarded to both
            :class:`TCAMArray` constructors (sensing style, precharge
            scheme, ...).
    """

    def __init__(
        self,
        cell: CellDescriptor,
        geometry: ArrayGeometry,
        probe_cols: int,
        early_terminate: bool = True,
        **array_kwargs,
    ) -> None:
        if not 0 < probe_cols < geometry.cols:
            raise TCAMError(
                f"probe_cols must be in (0, {geometry.cols}), got {probe_cols}"
            )
        self.geometry = geometry
        self.probe_cols = probe_cols
        self.early_terminate = early_terminate
        probe_geo = ArrayGeometry(geometry.rows, probe_cols, geometry.node)
        tail_geo = ArrayGeometry(geometry.rows, geometry.cols - probe_cols, geometry.node)
        self.stage1 = TCAMArray(cell, probe_geo, **array_kwargs)
        self.stage2 = TCAMArray(cell, tail_geo, **array_kwargs)

    # ------------------------------------------------------------------

    def write(self, row: int, word: TernaryWord) -> EnergyLedger:
        """Write one full-width word across both segments."""
        if len(word) != self.geometry.cols:
            raise TCAMError(
                f"word width {len(word)} does not match bank cols {self.geometry.cols}"
            )
        out1 = self.stage1.write(row, word[: self.probe_cols])
        out2 = self.stage2.write(row, word[self.probe_cols :])
        return out1.energy + out2.energy

    def load(self, words: list[TernaryWord], start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows."""
        ledger = EnergyLedger()
        for offset, word in enumerate(words):
            ledger.merge(self.write(start_row + offset, word))
        return ledger

    def standby_power(self) -> float:
        """Bank standby power [W]: every cell of both segment arrays
        leaks, probe then tail."""
        return self.stage1.standby_power() + self.stage2.standby_power()

    def word_at(self, row: int) -> TernaryWord:
        """Reassemble the stored word at ``row``."""
        left = self.stage1.word_at(row)
        right = self.stage2.word_at(row)
        return TernaryWord(list(left) + list(right))

    def attach_faults(self, faults: FaultMap | None) -> None:
        """Attach a bank-shaped defect map, projected onto both stages.

        The map covers the *logical* word (``rows x cols``); its column
        split follows the probe/tail partition, and row-level faults
        (dead rows, SA offsets) replicate into both stage arrays -- a
        broken match line takes out the whole logical row.
        """
        if faults is None:
            self.stage1.detach_faults()
            self.stage2.detach_faults()
            return
        if (faults.rows, faults.cols) != (self.geometry.rows, self.geometry.cols):
            raise TCAMError(
                f"fault map {faults.rows}x{faults.cols} does not match bank "
                f"{self.geometry.rows}x{self.geometry.cols}"
            )
        probe, tail = faults.split_cols(
            [self.probe_cols, self.geometry.cols - self.probe_cols]
        )
        self.stage1.attach_faults(probe)
        self.stage2.attach_faults(tail)

    def detach_faults(self) -> None:
        """Remove the defect maps from both stage arrays."""
        self.attach_faults(None)

    # ------------------------------------------------------------------

    def search(self, key: TernaryWord | np.ndarray) -> SegmentedSearchOutcome:
        """Two-stage search with exact selective-precharge accounting.

        ``key`` is a :class:`TernaryWord` or a 1-D row of trit codes.
        Traced as a ``bank.search`` span whose ``bank.stage1`` /
        ``bank.stage2`` children wrap the stage arrays' own spans, so the
        tree's merged energy reproduces the outcome ledger exactly.
        """
        key = trit_block([key], self.geometry.cols, "search")[0]
        with obs.span(
            "bank.search", rows=self.geometry.rows, cols=self.geometry.cols
        ) as sp:
            outcome = self._search_impl(key)
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(
                    survivors_stage1=outcome.survivors_stage1,
                    stage2_skipped=outcome.stage2_skipped,
                )
            return outcome

    def _search_impl(self, key: np.ndarray) -> SegmentedSearchOutcome:
        with obs.span("bank.stage1", probe_cols=self.probe_cols):
            out1 = self.stage1.search(key[: self.probe_cols])
        survivors = out1.match_mask
        n_survivors = int(np.count_nonzero(survivors))

        if n_survivors == 0 and self.early_terminate:
            return SegmentedSearchOutcome(
                match_mask=np.zeros(self.geometry.rows, dtype=bool),
                first_match=None,
                energy=out1.energy,
                search_delay=out1.search_delay,
                cycle_time=out1.cycle_time,
                survivors_stage1=0,
                stage2_skipped=True,
            )

        with obs.span("bank.stage2", survivors=n_survivors):
            out2 = self.stage2.search(key[self.probe_cols :], row_mask=survivors)
        final = survivors & out2.match_mask
        first = _first_true(final)
        return SegmentedSearchOutcome(
            match_mask=final,
            first_match=first,
            energy=out1.energy + out2.energy,
            search_delay=out1.search_delay + out2.search_delay,
            cycle_time=out1.cycle_time + out2.cycle_time,
            survivors_stage1=n_survivors,
            stage2_skipped=False,
        )

    def search_batch(self, keys) -> list[SegmentedSearchOutcome]:
        """Search many keys: a per-key loop over :meth:`search`.

        The stages share no cross-key work to batch.  This is the array
        contract's batch entry: :meth:`TCAMChip.search_batch
        <repro.tcam.chip.TCAMChip.search_batch>` hands every bank its
        slice of the key block through it.  ``keys`` (an ``(n, cols)``
        matrix of trit codes or a sequence of :class:`TernaryWord`) is
        validated whole (:func:`~repro.tcam.trit.trit_block`) before the
        first key moves either stage's search-line drive state.
        """
        block = trit_block(keys, self.geometry.cols, "search_batch")
        return [self.search(key) for key in block]

    def reference_outcome(self, key: TernaryWord) -> SearchOutcome:
        """Search an equivalent *flat* array for the A/B comparison.

        Builds (lazily, once) a flat array with the same contents and
        searches it, so benches can report segmented-vs-flat energy on
        identical state.
        """
        flat = getattr(self, "_flat_reference", None)
        if flat is None:
            flat = TCAMArray(self.stage1.cell, self.geometry)
            stored1 = self.stage1.stored_matrix()
            stored2 = self.stage2.stored_matrix()
            valid = self.stage1.valid_mask()
            for row in range(self.geometry.rows):
                if valid[row]:
                    word = TernaryWord(
                        np.concatenate([stored1[row], stored2[row]])
                    )
                    flat.write(row, word)
            self._flat_reference = flat
        return flat.search(key)


def _first_true(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return None
    return int(hits[0])


class HierarchicalBank:
    """N-stage generalization of the segmented bank.

    Columns are partitioned into ``segment_cols`` consecutive groups; each
    stage evaluates only the rows that survived every earlier stage (via
    the arrays' ``row_mask`` selective-precharge mechanism).  Deeper
    hierarchies cut the expensive wide-segment ML energy further at the
    price of serial stage latency -- the depth-vs-energy trade the R-T2
    ablation extension quantifies.

    Args:
        cell: Cell technology (shared by every segment).
        geometry: Logical shape (rows x total cols).
        segment_cols: Column width of each stage, summing to
            ``geometry.cols``; at least one stage.
        early_terminate: Skip the remaining stages once no rows survive.
        array_kwargs: Extra keyword arguments for every stage array.
    """

    def __init__(
        self,
        cell: CellDescriptor,
        geometry: ArrayGeometry,
        segment_cols: list[int],
        early_terminate: bool = True,
        **array_kwargs,
    ) -> None:
        if not segment_cols:
            raise TCAMError("need at least one segment")
        if any(s < 1 for s in segment_cols):
            raise TCAMError(f"segment widths must be >= 1, got {segment_cols}")
        if sum(segment_cols) != geometry.cols:
            raise TCAMError(
                f"segments {segment_cols} do not sum to {geometry.cols} columns"
            )
        self.geometry = geometry
        self.segment_cols = list(segment_cols)
        self.early_terminate = early_terminate
        self.stages = [
            TCAMArray(cell, ArrayGeometry(geometry.rows, cols, geometry.node), **array_kwargs)
            for cols in segment_cols
        ]
        self._bounds = np.concatenate([[0], np.cumsum(segment_cols)])

    @property
    def n_stages(self) -> int:
        """Hierarchy depth."""
        return len(self.stages)

    def _slice(self, word, stage: int):
        lo, hi = int(self._bounds[stage]), int(self._bounds[stage + 1])
        return word[lo:hi]

    def write(self, row: int, word: TernaryWord) -> EnergyLedger:
        """Write one full-width word across every segment."""
        if len(word) != self.geometry.cols:
            raise TCAMError(
                f"word width {len(word)} does not match bank cols {self.geometry.cols}"
            )
        ledger = EnergyLedger()
        for stage_idx, stage in enumerate(self.stages):
            ledger.merge(stage.write(row, self._slice(word, stage_idx)).energy)
        return ledger

    def load(self, words: list[TernaryWord], start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows."""
        ledger = EnergyLedger()
        for offset, word in enumerate(words):
            ledger.merge(self.write(start_row + offset, word))
        return ledger

    def standby_power(self) -> float:
        """Bank standby power [W]: the stage arrays' standby powers added
        left to right (a plain loop; builtin ``sum`` compensates rounding
        on Python 3.12)."""
        total = 0.0
        for stage in self.stages:
            total += stage.standby_power()
        return total

    def word_at(self, row: int) -> TernaryWord:
        """Reassemble the stored word at ``row``."""
        parts: list = []
        for stage in self.stages:
            parts.extend(list(stage.word_at(row)))
        return TernaryWord(parts)

    def attach_faults(self, faults: FaultMap | None) -> None:
        """Attach a bank-shaped defect map, one column slice per stage.

        Row-level faults replicate into every stage array, as in
        :meth:`SegmentedBank.attach_faults`.
        """
        if faults is None:
            for stage in self.stages:
                stage.detach_faults()
            return
        if (faults.rows, faults.cols) != (self.geometry.rows, self.geometry.cols):
            raise TCAMError(
                f"fault map {faults.rows}x{faults.cols} does not match bank "
                f"{self.geometry.rows}x{self.geometry.cols}"
            )
        for stage, sub in zip(self.stages, faults.split_cols(self.segment_cols)):
            stage.attach_faults(sub)

    def detach_faults(self) -> None:
        """Remove the defect maps from every stage array."""
        self.attach_faults(None)

    def search(self, key: TernaryWord | np.ndarray) -> SegmentedSearchOutcome:
        """N-stage search with exact selective-precharge accounting.

        ``key`` is a :class:`TernaryWord` or a 1-D row of trit codes.
        Traced as a ``bank.search`` span with one ``bank.stage<i>``
        child per evaluated stage.
        """
        key = trit_block([key], self.geometry.cols, "search")[0]
        with obs.span(
            "bank.search",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            n_stages=self.n_stages,
        ) as sp:
            outcome = self._search_impl(key)
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(
                    survivors_stage1=outcome.survivors_stage1,
                    stage2_skipped=outcome.stage2_skipped,
                )
            return outcome

    def search_batch(self, keys) -> list[SegmentedSearchOutcome]:
        """Search many keys: a per-key loop over :meth:`search`, with the
        same contract as :meth:`SegmentedBank.search_batch` (whole-batch
        validation first; the chip relies on it)."""
        block = trit_block(keys, self.geometry.cols, "search_batch")
        return [self.search(key) for key in block]

    def _search_impl(self, key: np.ndarray) -> SegmentedSearchOutcome:
        survivors = np.ones(self.geometry.rows, dtype=bool)
        ledger = EnergyLedger()
        delay = 0.0
        cycle = 0.0
        survivors_after_first = self.geometry.rows
        skipped = False
        for stage_idx, stage in enumerate(self.stages):
            if self.early_terminate and not survivors.any():
                skipped = True
                break
            with obs.span(f"bank.stage{stage_idx + 1}"):
                out = stage.search(self._slice(key, stage_idx), row_mask=survivors)
            ledger.merge(out.energy)
            delay += out.search_delay
            cycle += out.cycle_time
            survivors = survivors & out.match_mask
            if stage_idx == 0:
                survivors_after_first = int(np.count_nonzero(survivors))
        return SegmentedSearchOutcome(
            match_mask=survivors,
            first_match=_first_true(survivors),
            energy=ledger,
            search_delay=delay,
            cycle_time=cycle,
            survivors_stage1=survivors_after_first,
            stage2_skipped=skipped,
        )
