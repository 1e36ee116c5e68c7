"""Chip-level organization: banks, bank selection and power gating.

A TCAM chip tiles many banks.  Two system-level effects only appear at
this level:

* **Bank selection** -- a hash/profile steers each search to one bank, so
  only that bank's match lines and search lines move.
* **Non-volatile power gating** -- FeFET (and ReRAM) banks retain their
  contents with the supply collapsed, so idle banks can be gated to zero
  leakage and woken in nanoseconds.  SRAM-based banks must keep their
  supply up to retain data, paying retention leakage forever -- or accept
  a full reload from backing store on wake, paying the whole write energy
  again.

Experiment R-F12 sweeps the search duty cycle to show where the
non-volatile standby story dominates total energy.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..energy.accounting import EnergyComponent, EnergyLedger
from ..errors import CapacityError, TCAMError
from ..faults.faultmap import FaultMap
from .array import SearchOutcome, _check_count
from .outcome import BaseOutcome
from .trit import TernaryWord, trit_block


def _check_idle_time(idle_time, api: str) -> None:
    """Raise :class:`TCAMError` naming ``api`` unless ``idle_time`` is a
    finite real number >= 0."""
    if (
        isinstance(idle_time, bool)
        or not isinstance(idle_time, numbers.Real)
        or not (math.isfinite(idle_time) and idle_time >= 0.0)
    ):
        raise TCAMError(
            f"{api} idle_time must be a finite number >= 0, got {idle_time!r}"
        )


def _write_energy(bank, row: int, word: TernaryWord) -> EnergyLedger:
    """The ledger of ``bank.write``: arrays return a ``WriteOutcome``,
    segmented and hierarchical banks a bare ledger."""
    out = bank.write(row, word)
    return out if isinstance(out, EnergyLedger) else out.energy


@dataclass(frozen=True)
class GatingPolicy:
    """How idle banks are handled.

    Attributes:
        gate_idle_banks: Collapse the supply of banks not being searched.
        wakeup_latency: Supply-restore time when a gated bank is searched [s].
        wakeup_energy: Supply-rail recharge energy per wake event [J].
        retention_required: True when the cells lose data if gated
            (SRAM-based chips); gating is then refused.
    """

    gate_idle_banks: bool = False
    wakeup_latency: float = 10e-9
    wakeup_energy: float = 50e-15
    retention_required: bool = False

    def __post_init__(self) -> None:
        if self.wakeup_latency < 0.0 or self.wakeup_energy < 0.0:
            raise TCAMError("wake-up costs must be non-negative")
        if self.gate_idle_banks and self.retention_required:
            raise TCAMError(
                "cannot gate idle banks: the cell technology loses data "
                "without supply (volatile storage)"
            )


@dataclass(frozen=True)
class ChipSearchOutcome(BaseOutcome):
    """One chip search.

    Attributes:
        bank: Bank that served the search.
        row: Global row index of the first match, or ``None``.
        outcome: The bank-level search outcome.
        energy: Bank search energy + idle-bank leakage + wake-up costs.
        latency: Search delay including any wake-up.
    """

    bank: int
    row: int | None
    outcome: SearchOutcome
    energy: EnergyLedger
    latency: float

    @property
    def match_mask(self):
        """Per-row verdicts of the bank that served the search."""
        return self.outcome.match_mask

    @property
    def first_match(self) -> int | None:
        """Chip-global row index of the first match, or ``None``."""
        return self.row

    @property
    def search_delay(self) -> float:
        """Key-to-result latency including any wake-up [s]."""
        return self.latency

    @property
    def cycle_time(self) -> float:
        """Minimum time before the next operation [s]."""
        return self.outcome.cycle_time

    def _extra_dict(self) -> dict:
        return {"bank": int(self.bank), "latency": self.latency}


class TCAMChip:
    """A chip of ``n_banks`` identical banks with one shared search port.

    Args:
        build_bank: Zero-argument factory producing one bank
            (:class:`TCAMArray` or compatible); called ``n_banks`` times.
        n_banks: Bank count.
        gating: Idle-bank gating policy.
    """

    def __init__(self, build_bank, n_banks: int, gating: GatingPolicy | None = None) -> None:
        if n_banks < 1:
            raise TCAMError(f"n_banks must be >= 1, got {n_banks}")
        self.banks = [build_bank() for _ in range(n_banks)]
        geometry = self.banks[0].geometry
        for bank in self.banks[1:]:
            if bank.geometry != geometry:
                raise TCAMError("all banks must share one geometry")
        self.geometry = geometry
        self.gating = gating if gating is not None else GatingPolicy()
        self._powered = np.ones(n_banks, dtype=bool)
        if self.gating.gate_idle_banks:
            self._powered[:] = False

    # ------------------------------------------------------------------

    @property
    def n_banks(self) -> int:
        """Number of banks."""
        return len(self.banks)

    @property
    def rows_total(self) -> int:
        """Total row capacity of the chip."""
        return self.n_banks * self.geometry.rows

    def _split(self, global_row: int) -> tuple[int, int]:
        if not 0 <= global_row < self.rows_total:
            raise TCAMError(f"row {global_row} outside [0, {self.rows_total})")
        return divmod(global_row, self.geometry.rows)

    def write(self, global_row: int, word: TernaryWord) -> EnergyLedger:
        """Write one word at a chip-global row (wakes the bank if gated)."""
        bank_idx, local_row = self._split(global_row)
        ledger = EnergyLedger()
        self._wake(bank_idx, ledger)
        ledger.merge(_write_energy(self.banks[bank_idx], local_row, word))
        return ledger

    def load(self, words) -> EnergyLedger:
        """Fill the chip row-major with ``words``; :meth:`load_rows` from
        row 0."""
        return self.load_rows(words)

    def load_rows(self, words, start_row: int = 0) -> EnergyLedger:
        """Bulk-fill chip rows row-major with one wake + one load per bank.

        ``words`` is an ``(n, cols)`` matrix of trit codes or a sequence
        of :class:`TernaryWord`, validated whole
        (:func:`~repro.tcam.trit.trit_block`) before any bank wakes or
        stores a row.  Each touched bank wakes once and takes its slice
        of the block through its own ``load`` (for an array, one
        content-version bump per bank instead of one per row) -- the
        corpus-load path for the retrieval workload.

        The ledger contract: each bank's ledger equals the bank's own
        ``write`` loop over its rows, and the chip merges the bank
        ledgers (after each bank's wake) in bank order.  This is not, in
        general, float-identical to one chip-level :meth:`write` loop,
        which adds every row's ledger into one running sum: the per-bank
        partial sums round differently in the last place.
        """
        start_row = _check_count(start_row, "load_rows start_row", 0)
        block = trit_block(words, self.geometry.cols, "TCAMChip.load_rows")
        n = len(block)
        if start_row + n > self.rows_total:
            raise CapacityError(
                f"{n} words at row {start_row} do not fit in "
                f"{self.rows_total} chip rows"
            )
        ledger = EnergyLedger()
        rows = self.geometry.rows
        pos = 0
        while pos < n:
            bank_idx, local_row = divmod(start_row + pos, rows)
            n_block = min(rows - local_row, n - pos)
            self._wake(bank_idx, ledger)
            ledger.merge(self.banks[bank_idx].load(block[pos : pos + n_block], start_row=local_row))
            pos += n_block
        return ledger

    def attach_faults(self, faults: FaultMap | None) -> None:
        """Attach a chip-global defect map (``rows_total x cols``).

        Row groups project onto the banks in chip row-major order, so
        fault row ``i`` lands on bank ``i // rows`` local row
        ``i % rows`` -- the same addressing :meth:`write` uses.
        """
        if faults is None:
            for bank in self.banks:
                bank.detach_faults()
            return
        if (faults.rows, faults.cols) != (self.rows_total, self.geometry.cols):
            raise TCAMError(
                f"fault map {faults.rows}x{faults.cols} does not match chip "
                f"{self.rows_total}x{self.geometry.cols}"
            )
        for bank, sub in zip(self.banks, faults.split_rows(self.geometry.rows)):
            bank.attach_faults(sub)

    def detach_faults(self) -> None:
        """Remove the defect maps from every bank."""
        self.attach_faults(None)

    # ------------------------------------------------------------------

    def _check_bank(self, bank, api: str) -> int:
        """``bank`` as a Python int index, or :class:`TCAMError` naming ``api``."""
        bank = _check_count(bank, f"{api} bank", 0)
        if bank >= self.n_banks:
            raise TCAMError(f"{api} bank {bank} outside [0, {self.n_banks})")
        return bank

    def _wake(self, bank_idx: int, ledger: EnergyLedger) -> float:
        """Power a gated bank up; return the added latency."""
        if self._powered[bank_idx]:
            return 0.0
        ledger.add(EnergyComponent.CLOCK, self.gating.wakeup_energy)
        self._powered[bank_idx] = True
        return self.gating.wakeup_latency

    def _sleep_idle(self, active_bank: int) -> None:
        """Gate every bank except the one just used (it stays warm)."""
        if self.gating.gate_idle_banks:
            self._powered[:] = False
            self._powered[active_bank] = True

    def search(self, key: TernaryWord, bank: int, idle_time: float = 0.0) -> ChipSearchOutcome:
        """Search one bank; account idle-bank leakage over ``idle_time``.

        A one-key :meth:`search_batch`: the bank, the idle time and the
        key are validated before the gating state moves, and the search
        is traced as a ``chip.search`` span (attributes ``bank``,
        ``n_banks``, ``row``, ``wakeup``; the outcome's latency as its
        delay).

        Args:
            key: Search key (bank-width): a :class:`TernaryWord` or a
                1-D row of trit codes.
            bank: Bank index to search (bank-selection is the caller's
                profile/hash decision).
            idle_time: Wall-clock time since the previous chip operation
                [s]; ungated banks leak over it.
        """
        bank = self._check_bank(bank, "search")
        _check_idle_time(idle_time, "search")
        block = trit_block([key], self.geometry.cols, "TCAMChip.search")
        return self._search_block(
            block, [bank], idle_time, "chip.search", one_key=True, bank=bank
        )[0]

    def search_batch(
        self,
        keys,
        banks: int | Sequence[int],
        idle_time: float = 0.0,
    ) -> list[ChipSearchOutcome]:
        """Search many keys, each on its bank.

        The wake / idle-leak / gating state machine is stepped through
        the keys in order before any bank is searched, so each key books
        the wake-up and idle leakage the chip state at its turn implies.
        Keys routed to the same bank stay in their original relative
        order, so each bank's search-line toggle chain and kernel
        counters evolve as they would key by key; each bank then takes
        its keys in one ``search_batch`` call with its slice of the key
        block, banks in ascending index order.  Every bank type answers
        that call (:class:`TCAMArray` on its compiled kernel, the
        segmented and hierarchical banks key by key).  Traced as a
        ``chip.search_batch`` span.

        The whole batch (key codes and widths, bank indices, idle time)
        is validated before any bank state moves.

        Args:
            keys: Search keys (bank-width): an ``(n, cols)`` matrix of
                trit codes or a sequence of :class:`TernaryWord`
                (:func:`~repro.tcam.trit.trit_block`).
            banks: Bank index per key, or one index for the whole batch.
            idle_time: Idle window accounted before each search [s], as
                in :meth:`search`.
        """
        block = trit_block(keys, self.geometry.cols, "TCAMChip.search_batch")
        n = len(block)
        if isinstance(banks, Iterable):
            bank_ids = [self._check_bank(b, "search_batch") for b in banks]
        else:
            bank_ids = [self._check_bank(banks, "search_batch")] * n
        if len(bank_ids) != n:
            raise TCAMError(
                f"search_batch: {len(bank_ids)} bank indices for {n} keys"
            )
        _check_idle_time(idle_time, "search_batch")
        if not n:
            return []

        return self._search_block(block, bank_ids, idle_time, "chip.search_batch", n_keys=n)

    def _search_block(
        self, block: np.ndarray, bank_ids: list[int], idle_time: float, span: str,
        one_key: bool = False, **attrs,
    ) -> list[ChipSearchOutcome]:
        """Search validated keys, each on its bank, under a ``span`` span.

        Each key's wake + idle-leakage overhead ledger is the span's own
        energy; the bank searches nested below contribute the rest, so
        the tree's merged total reproduces the outcome ledgers exactly.
        A one-key span (``one_key``) keeps the scalar shape: the
        outcome's latency as its delay, annotated with the global ``row``
        and ``wakeup``; a batch span is annotated with ``banks_touched``.
        """
        with obs.span(span, **attrs, n_banks=self.n_banks) as sp:
            m = obs.metrics()
            # Step the wake / idle-leak / gating state machine through the
            # batch in key order -- it only reads and writes the powered
            # mask, so it factors out of the bank searches exactly.
            overheads: list[EnergyLedger] = []
            extras: list[float] = []
            for b in bank_ids:
                ledger = EnergyLedger()
                extras.append(self._wake(b, ledger))
                if idle_time > 0.0:
                    powered = int(np.count_nonzero(self._powered))
                    leak_power = self.banks[0].standby_power()
                    ledger.add(EnergyComponent.LEAKAGE, powered * leak_power * idle_time)
                self._sleep_idle(b)
                overheads.append(ledger)
                if sp is not None:
                    sp.add_energy(ledger)
                if m is not None:
                    m.counter("chip.searches").inc()
                    for component, joules in ledger:
                        m.counter("energy." + component).inc(joules)

            # Each bank searches its own key subsequence, in key order.
            by_bank: dict[int, list[int]] = {}
            for i, b in enumerate(bank_ids):
                by_bank.setdefault(b, []).append(i)
            per_key: list[SearchOutcome | None] = [None] * len(bank_ids)
            for b in sorted(by_bank):
                idxs = by_bank[b]
                for i, outcome in zip(idxs, self.banks[b].search_batch(block[idxs])):
                    per_key[i] = outcome

            chip_outcomes: list[ChipSearchOutcome] = []
            for i, (b, outcome) in enumerate(zip(bank_ids, per_key)):
                ledger = EnergyLedger()
                ledger.merge(overheads[i])
                ledger.merge(outcome.energy)
                row = None
                if outcome.first_match is not None:
                    row = b * self.geometry.rows + outcome.first_match
                chip_outcomes.append(
                    ChipSearchOutcome(
                        bank=b,
                        row=row,
                        outcome=outcome,
                        energy=ledger,
                        latency=outcome.search_delay + extras[i],
                    )
                )
            if sp is not None and one_key:
                sp.set_delay(chip_outcomes[0].latency)
                sp.annotate(row=chip_outcomes[0].row, wakeup=extras[0] > 0.0)
            elif sp is not None:
                sp.annotate(banks_touched=len(by_bank))
            return chip_outcomes

    # ------------------------------------------------------------------

    def standby_power(self) -> float:
        """Chip standby power with the present gating state [W]."""
        powered = int(np.count_nonzero(self._powered))
        return powered * self.banks[0].standby_power()

    def energy_per_search_at_rate(self, searches_per_second: float) -> float:
        """Amortized total energy per search at a given search rate [J].

        Total = one bank search + (chip standby power x the idle interval)
        + (wake energy when gating).  This is the quantity experiment
        R-F12 sweeps: at high rates the search term dominates; at low
        rates the standby term does -- unless idle banks are gated.
        """
        if searches_per_second <= 0.0:
            raise TCAMError("search rate must be positive")
        interval = 1.0 / searches_per_second
        rng = np.random.default_rng(0)
        from .trit import random_word

        key = random_word(self.geometry.cols, rng)
        result = self.search(key, bank=0, idle_time=interval)
        return result.energy.total
