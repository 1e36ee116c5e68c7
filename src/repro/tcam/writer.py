"""Batch write planning.

Routing tables and rule sets update incrementally.  :class:`WriteScheduler`
diffs the desired content against what an array already stores and plans
the minimal set of row writes, which matters for FeFET TCAMs where a write
costs orders of magnitude more than a search (experiment R-T3 quantifies
the per-technology write costs this scheduler amortizes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy.accounting import EnergyLedger
from ..errors import CapacityError, TCAMError
from .array import TCAMArray
from .trit import TernaryWord


@dataclass(frozen=True)
class WritePlan:
    """A planned batch update.

    Attributes:
        writes: ``(row, word)`` pairs to program.
        invalidations: Rows to mark invalid.
        unchanged: Rows already holding their desired word.
    """

    writes: tuple[tuple[int, TernaryWord], ...]
    invalidations: tuple[int, ...]
    unchanged: tuple[int, ...]


@dataclass
class WriteScheduler:
    """Plans and applies minimal batch updates against one array.

    Attributes:
        array: The target array.
    """

    array: TCAMArray

    def plan(self, desired: list[TernaryWord]) -> WritePlan:
        """Diff ``desired`` (row-ordered) against the array contents.

        Rows beyond ``len(desired)`` are invalidated; rows already storing
        the right word are skipped.

        Raises:
            CapacityError: when ``desired`` exceeds the array's rows.
        """
        rows = self.array.geometry.rows
        if len(desired) > rows:
            raise CapacityError(
                f"{len(desired)} words do not fit in {rows} rows"
            )
        for word in desired:
            if len(word) != self.array.geometry.cols:
                raise TCAMError(
                    f"word width {len(word)} does not match array cols "
                    f"{self.array.geometry.cols}"
                )
        valid = self.array.valid_mask()
        stored = self.array.stored_matrix()

        writes: list[tuple[int, TernaryWord]] = []
        unchanged: list[int] = []
        for row, word in enumerate(desired):
            if valid[row] and bool(np.array_equal(stored[row], word.as_array())):
                unchanged.append(row)
            else:
                writes.append((row, word))
        invalidations = [
            row for row in range(len(desired), rows) if valid[row]
        ]
        return WritePlan(
            writes=tuple(writes),
            invalidations=tuple(invalidations),
            unchanged=tuple(unchanged),
        )

    def apply(self, plan: WritePlan) -> tuple[EnergyLedger, float]:
        """Execute a plan; return (energy ledger, total latency).

        Rows write serially (one write port), so latency is the sum of the
        per-row latencies.
        """
        ledger = EnergyLedger()
        latency = 0.0
        for row, word in plan.writes:
            outcome = self.array.write(row, word)
            ledger.merge(outcome.energy)
            latency += outcome.latency
        for row in plan.invalidations:
            self.array.invalidate(row)
        return ledger, latency

    def update(self, desired: list[TernaryWord]) -> tuple[WritePlan, EnergyLedger, float]:
        """Plan and apply in one step; return (plan, energy, latency)."""
        plan = self.plan(desired)
        ledger, latency = self.apply(plan)
        return plan, ledger, latency
