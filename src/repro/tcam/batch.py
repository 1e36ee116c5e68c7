"""Search results: one key's :class:`SearchOutcome` and a batch's
:class:`SearchBatch`.

:meth:`TCAMArray.search <repro.tcam.array.TCAMArray.search>` returns a
:class:`SearchOutcome`; :meth:`TCAMArray.search_batch
<repro.tcam.array.TCAMArray.search_batch>` returns a :class:`SearchBatch`,
the same fields stacked into columns over the keys, which builds the
per-key outcomes only when a caller indexes or iterates it (DESIGN.md
section 5).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..energy.accounting import EnergyLedger
from .outcome import BaseOutcome, BatchColumns


def _histograms(counts: np.ndarray) -> list[dict[int, int]]:
    """Per-key ``{mismatch_count: row_count}`` dicts of a dense
    ``(keys, classes)`` count matrix: classes ascending, empty ones left
    out, as the reference histogram lists them."""
    kk, nn = np.nonzero(counts)  # row-major: per key, ascending class
    bounds = np.searchsorted(kk, np.arange(counts.shape[0] + 1)).tolist()
    classes, cnts = nn.tolist(), counts[kk, nn].tolist()
    return [dict(zip(classes[lo:hi], cnts[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class SearchOutcome(BaseOutcome):
    """Everything one search returns.

    Attributes:
        match_mask: Per-row physical match verdicts (invalid rows masked).
        first_match: Lowest matching row index, or ``None``.
        energy: Per-component energy ledger for this search [J].
        search_delay: Key-to-result latency [s].
        cycle_time: Minimum time before the next search can issue [s]
            (includes ML restore for precharge-style sensing).
        miss_histogram: ``{mismatch_count: row_count}`` over valid rows.
        functional_errors: Rows whose physical verdict disagrees with the
            logical ternary match (0 in a healthy design).
    """

    match_mask: np.ndarray
    first_match: int | None
    energy: EnergyLedger
    search_delay: float
    cycle_time: float
    miss_histogram: dict[int, int]
    functional_errors: int

    def _extra_dict(self) -> dict:
        return {
            "miss_histogram": {int(k): int(v) for k, v in self.miss_histogram.items()},
            "functional_errors": int(self.functional_errors),
        }


class SearchBatch(BatchColumns, Sequence):
    """Columnar result of :meth:`TCAMArray.search_batch`.

    Column ``f`` holds field ``f`` of every key's :class:`SearchOutcome`,
    stacked along the first axis:

    * ``match_mask`` -- ``(keys, rows)`` bool verdicts;
    * ``first_match`` -- ``(keys,)`` int, ``-1`` where nothing matched;
    * ``components`` / ``energy`` -- the component names in booking
      order and the ``(keys, components)`` energy matrix [J];
    * ``search_delay``, ``cycle_time`` -- ``(keys,)`` float [s];
    * ``functional_errors`` -- ``(keys,)`` int;
    * ``class_counts`` -- ``(keys, cols + 1)`` valid-row counts per
      mismatch class, the source of ``miss_histogram``.

    The batch is a ``Sequence[SearchOutcome]``: the first index or
    iteration builds every outcome in one pass and caches the list, so
    a caller that walks the outcomes gets exactly what per-key
    :meth:`TCAMArray.search` calls return.  The :class:`BatchColumns`
    reads and :meth:`energy_ledger` come from the columns and build no
    outcome.
    """

    __slots__ = (
        "match_mask", "first_match", "components", "energy", "search_delay",
        "cycle_time", "functional_errors", "class_counts", "_outcomes",
    )

    def __init__(
        self,
        match_mask: np.ndarray,
        first_match: np.ndarray,
        components: tuple[str, ...],
        energy: np.ndarray,
        search_delay: np.ndarray,
        cycle_time: np.ndarray,
        functional_errors: np.ndarray,
        class_counts: np.ndarray,
    ) -> None:
        self.match_mask = match_mask
        self.first_match = first_match
        self.components = components
        self.energy = energy
        self.search_delay = search_delay
        self.cycle_time = cycle_time
        self.functional_errors = functional_errors
        self.class_counts = class_counts
        self._outcomes: list[SearchOutcome] | None = None

    def __len__(self) -> int:
        return len(self.first_match)

    def __getitem__(self, index):
        return self._materialised()[index]

    def __iter__(self):
        return iter(self._materialised())

    def __add__(self, other) -> list[SearchOutcome]:
        return self._materialised() + list(other)

    def __radd__(self, other) -> list[SearchOutcome]:
        return list(other) + self._materialised()

    def __repr__(self) -> str:
        return f"SearchBatch(keys={len(self)}, components={self.components})"

    def _materialised(self) -> list[SearchOutcome]:
        """Every key's :class:`SearchOutcome`, built once from the columns."""
        if self._outcomes is None:
            comps = self.components
            self._outcomes = [
                SearchOutcome(
                    match_mask=mask,
                    first_match=first if first >= 0 else None,
                    energy=EnergyLedger._from_booked(dict(zip(comps, row))),
                    search_delay=delay,
                    cycle_time=cycle,
                    miss_histogram=hist,
                    functional_errors=errors,
                )
                for mask, first, row, delay, cycle, hist, errors in zip(
                    self.match_mask.copy(),
                    self.first_match.tolist(),
                    self.energy.tolist(),
                    self.search_delay.tolist(),
                    self.cycle_time.tolist(),
                    _histograms(self.class_counts),
                    self.functional_errors.tolist(),
                )
            ]
        return self._outcomes

    # -- column reads (BatchColumns) ------------------------------------------

    def first_rows(self) -> list[int | None]:
        return [None if f < 0 else f for f in self.first_match.tolist()]

    def energy_totals(self, extra: float | None = None) -> list[float]:
        rows = self.energy.tolist()
        if extra is not None:
            for row in rows:
                row.append(extra)
        return [sum(row) for row in rows]

    def cycle_times(self) -> list[float]:
        return self.cycle_time.tolist()

    def energy_ledger(self) -> EnergyLedger:
        """The per-key ledgers merged in key order, from the columns.

        ``EnergyLedger.sum`` adds each component's per-key values left
        to right; ``np.cumsum`` down a column accumulates in the same
        order, so the totals are the same floats, components in booking
        order.
        """
        totals = np.cumsum(self.energy, axis=0)[-1].tolist()
        return EnergyLedger._from_booked(dict(zip(self.components, totals)))
