"""Segmented (hierarchical) search -- selective precharge at bank level.

The match line of a ``cols``-wide word is split into consecutive
segments.  Stage 1 searches its columns on every row; each later stage
precharges and evaluates only the rows that survived every earlier
stage.  Because a random probe of ``s`` specified columns eliminates all
but ~``2^-s`` of the rows, the expensive tail MLs are almost never
exercised -- this is the segmentation / selective-precharge technique of
DESIGN.md (#2) and the ablation table R-T2.

:class:`HierarchicalBank` composes one :class:`~repro.tcam.array.TCAMArray`
per segment over a shared logical address space and passes the running
survivors as the ``row_mask`` of the next stage, so the energy accounting
is exact rather than a scaling approximation.  :class:`SegmentedBank` is
its two-stage form: a short *probe* segment and a long *tail*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..energy.accounting import EnergyLedger
from ..errors import TCAMError
from ..faults.faultmap import FaultMap
from .array import ArrayGeometry, TCAMArray, _check_count, _check_row
from .cell import CellDescriptor
from .outcome import BaseOutcome
from .trit import TernaryWord, trit_block


@dataclass(frozen=True)
class SegmentedSearchOutcome(BaseOutcome):
    """Result of a staged (segmented) search.

    Attributes:
        match_mask: Final per-row verdicts.
        first_match: Lowest matching row, or ``None``.
        energy: The evaluated stages' ledgers merged in stage order.
        search_delay: Serial latency of the evaluated stages [s].
        cycle_time: Serial cycle time [s].
        survivors_stage1: Rows that passed the first segment.
        stage2_skipped: True when early termination skipped the
            remaining stages (no survivors).
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


def _first_true(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return None
    return int(hits[0])


class HierarchicalBank:
    """A TCAM bank with an N-segment match line.

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
        """Write one full-width word across every segment.

        ``word`` is a :class:`TernaryWord` or a 1-D row of trit codes;
        it and ``row`` are validated before any stage stores a cell.
        """
        row = _check_row(row, self.geometry.rows, "write")
        return self._write_row(row, trit_block([word], self.geometry.cols, "write")[0])

    def _write_row(self, row: int, codes: np.ndarray) -> EnergyLedger:
        """Store the validated code row at ``row``, stage by stage; the
        stage ledgers merged in stage order."""
        ledger = EnergyLedger()
        for stage_idx, stage in enumerate(self.stages):
            ledger.merge(stage.write(row, self._slice(codes, stage_idx)).energy)
        return ledger

    def load(self, words, start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows.

        The array contract: ``words`` is an ``(n, cols)`` matrix of trit
        codes or a sequence of :class:`TernaryWord`
        (:func:`~repro.tcam.trit.trit_block`).  The block, ``start_row``
        and the capacity are validated before any stage stores a row.
        The rows are then written one by one, stage by stage, and the
        returned ledger is the one a :meth:`write` loop over the same
        rows merges, row ledgers in row order.
        """
        start_row = _check_count(start_row, "load start_row", 0)
        block = trit_block(words, self.geometry.cols, "load")
        if start_row + len(block) > self.geometry.rows:
            raise TCAMError(
                f"cannot load {len(block)} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        ledger = EnergyLedger()
        for offset, codes in enumerate(block):
            ledger.merge(self._write_row(start_row + offset, codes))
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

        The map covers the *logical* word (``rows x cols``); its column
        split follows the segment partition, and row-level faults (dead
        rows, SA offsets) replicate into every stage array -- a broken
        match line takes out the whole logical row.
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
        """Search many keys: a per-key loop over :meth:`search`.

        The stages share no cross-key work to batch.  This is the array
        contract's batch entry: :meth:`TCAMChip.search_batch
        <repro.tcam.chip.TCAMChip.search_batch>` hands every bank its
        slice of the key block through it.  ``keys`` (an ``(n, cols)``
        matrix of trit codes or a sequence of :class:`TernaryWord`) is
        validated whole (:func:`~repro.tcam.trit.trit_block`) before the
        first key moves any stage's search-line drive state.
        """
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


class SegmentedBank(HierarchicalBank):
    """A TCAM bank with a two-segment match line: a hierarchy of depth 2.

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
        super().__init__(
            cell, geometry, [probe_cols, geometry.cols - probe_cols], early_terminate,
            **array_kwargs,
        )
        self.probe_cols = probe_cols

    @property
    def stage1(self) -> TCAMArray:
        """The probe-segment array (``stages[0]``)."""
        return self.stages[0]

    @property
    def stage2(self) -> TCAMArray:
        """The tail-segment array (``stages[1]``)."""
        return self.stages[1]
