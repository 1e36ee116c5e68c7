"""Repair policies: what an array can do about its defect map.

Two classic TCAM repair mechanisms are modeled, plus an explicit no-op
baseline:

* ``spare-rows`` (:class:`SpareRowPolicy`) -- the last ``n_spare``
  physical rows are reserved as spares.  Each valid row touched by any
  fault has its *intended* content rewritten into a healthy spare and
  the broken row invalidated, so lookups keep working at a relocated
  physical index (the report's ``row_map`` records the relocation).
  Costs: the spare region's area overhead plus the remap write energy.
* ``mask`` (:class:`MaskPolicy`) -- don't-care masking.  Cell faults
  whose electrical behavior an X trit reproduces exactly (an open
  compare path, a retention-weakened pull-down, a trit frozen at X) are
  overwritten with X in the intended content, realigning the logical
  oracle with the hardware at zero area cost.  The price is semantic:
  a masked column matches *every* key, so masking trades false misses
  for deliberate wildcard matches.  Shorted compare paths, frozen 0/1
  trits, dead rows and SA offsets are not maskable and stay unrepaired.

Both policies mutate the array through its ordinary :meth:`write` /
:meth:`invalidate` operations and book every joule spent under
:attr:`~repro.energy.accounting.EnergyComponent.REPAIR` in the report's
ledger, keeping repair cost separable from search cost downstream.

This module lazy-imports :mod:`repro.tcam` inside functions: the array
core imports :mod:`repro.faults` at module level, so the reverse edge
must stay deferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..energy.accounting import EnergyComponent, EnergyLedger
from ..errors import FaultError
from .faultmap import FaultKind, FaultMap

REPAIR_POLICIES = ("none", "spare-rows", "mask")


@dataclass(frozen=True)
class RepairReport:
    """What one repair pass did and what it cost.

    Attributes:
        policy: Policy name (one of :data:`REPAIR_POLICIES`).
        repaired_rows: Rows whose content is again served correctly.
        unrepaired_rows: Faulty valid rows the policy could not fix.
        masked_cells: Cells overwritten with X (mask policy only).
        row_map: ``{broken_row: spare_row}`` relocations (spare-row
            policy only); lookups for a broken row's content now hit
            the mapped physical row.
        energy: Repair-cost ledger (all under the ``repair`` component).
        area_overhead: Fractional array area spent on the mechanism.
    """

    policy: str
    repaired_rows: tuple[int, ...]
    unrepaired_rows: tuple[int, ...]
    masked_cells: int
    row_map: dict[int, int]
    energy: EnergyLedger
    area_overhead: float

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "repaired_rows": [int(r) for r in self.repaired_rows],
            "unrepaired_rows": [int(r) for r in self.unrepaired_rows],
            "masked_cells": int(self.masked_cells),
            "row_map": {int(k): int(v) for k, v in self.row_map.items()},
            "repair_energy": float(self.energy.total),
            "area_overhead": float(self.area_overhead),
        }


@dataclass(frozen=True)
class NoRepairPolicy:
    """Explicit baseline: report the damage, fix nothing."""

    name: str = field(default="none", init=False)

    def repair(self, array, fault_map: FaultMap) -> RepairReport:
        _check_shapes(array, fault_map)
        broken = _broken_valid_rows(array, fault_map)
        return RepairReport(
            policy=self.name,
            repaired_rows=(),
            unrepaired_rows=tuple(int(r) for r in broken),
            masked_cells=0,
            row_map={},
            energy=EnergyLedger(),
            area_overhead=0.0,
        )


@dataclass(frozen=True)
class SpareRowPolicy:
    """Relocate broken rows into a reserved spare region.

    Args:
        n_spare: Rows reserved at the *bottom* of the physical array.
            The campaign driver loads content into the first
            ``rows - n_spare`` rows so the spares start empty.
    """

    n_spare: int

    def __post_init__(self) -> None:
        if self.n_spare < 0:
            raise FaultError(f"n_spare must be non-negative, got {self.n_spare}")

    @property
    def name(self) -> str:
        return "spare-rows"

    def _healthy_spares(self, array, fault_map: FaultMap) -> list[int]:
        rows = array.geometry.rows
        lo = rows - self.n_spare
        spares = []
        for row in range(lo, rows):
            if array.valid_mask()[row]:
                continue  # already occupied (e.g. by a previous repair)
            if fault_map.kind[row].any():
                continue
            if fault_map.dead_rows[row] or fault_map.sa_offset[row] != 0.0:
                continue
            spares.append(row)
        return spares

    def repair(self, array, fault_map: FaultMap) -> RepairReport:
        _check_shapes(array, fault_map)
        rows = array.geometry.rows
        if self.n_spare > rows:
            raise FaultError(
                f"cannot reserve {self.n_spare} spare rows in a {rows}-row array"
            )
        lo = rows - self.n_spare
        broken = [r for r in _broken_valid_rows(array, fault_map) if r < lo]
        spares = self._healthy_spares(array, fault_map)

        ledger = EnergyLedger()
        repaired: list[int] = []
        row_map: dict[int, int] = {}
        for row in broken:
            if not spares:
                break
            spare = spares.pop(0)
            word = array.word_at(row)
            ledger.add(EnergyComponent.REPAIR, array.write(spare, word).energy.total)
            array.invalidate(row)
            row_map[row] = spare
            repaired.append(row)
        unrepaired = [r for r in broken if r not in row_map]
        return RepairReport(
            policy=self.name,
            repaired_rows=tuple(repaired),
            unrepaired_rows=tuple(unrepaired),
            masked_cells=0,
            row_map=row_map,
            energy=ledger,
            area_overhead=self.n_spare / rows if rows else 0.0,
        )


@dataclass(frozen=True)
class MaskPolicy:
    """Overwrite maskable faulty cells with don't-care trits."""

    name: str = field(default="mask", init=False)

    @staticmethod
    def _maskable(fault_map: FaultMap, row: int, col: int) -> bool:
        kind = FaultKind(int(fault_map.kind[row, col]))
        if kind in (FaultKind.STUCK_MATCH, FaultKind.RETENTION):
            return True
        if kind is FaultKind.STUCK_TRIT:
            from ..tcam.trit import Trit

            return int(fault_map.value[row, col]) == int(Trit.X)
        return False

    def repair(self, array, fault_map: FaultMap) -> RepairReport:
        from ..tcam.trit import TernaryWord, Trit

        _check_shapes(array, fault_map)
        broken = _broken_valid_rows(array, fault_map)
        ledger = EnergyLedger()
        repaired: list[int] = []
        unrepaired: list[int] = []
        masked = 0
        for row in broken:
            if fault_map.dead_rows[row] or fault_map.sa_offset[row] != 0.0:
                unrepaired.append(row)
                continue
            cols = np.flatnonzero(fault_map.kind[row])
            if not all(self._maskable(fault_map, row, int(c)) for c in cols):
                unrepaired.append(row)
                continue
            codes = array.word_at(row).as_array().copy()
            codes[cols] = int(Trit.X)
            ledger.add(
                EnergyComponent.REPAIR,
                array.write(row, TernaryWord(codes)).energy.total,
            )
            masked += int(cols.size)
            repaired.append(row)
        return RepairReport(
            policy=self.name,
            repaired_rows=tuple(repaired),
            unrepaired_rows=tuple(unrepaired),
            masked_cells=masked,
            row_map={},
            energy=ledger,
            area_overhead=0.0,
        )


def get_policy(name: str, *, n_spare: int = 4):
    """Repair-policy factory (``none`` / ``spare-rows`` / ``mask``)."""
    if name == "none":
        return NoRepairPolicy()
    if name == "spare-rows":
        return SpareRowPolicy(n_spare=n_spare)
    if name == "mask":
        return MaskPolicy()
    raise FaultError(f"repair policy must be one of {REPAIR_POLICIES}, got {name!r}")


def _check_shapes(array, fault_map: FaultMap) -> None:
    shape = (array.geometry.rows, array.geometry.cols)
    if (fault_map.rows, fault_map.cols) != shape:
        raise FaultError(
            f"fault map {fault_map.rows}x{fault_map.cols} does not match array "
            f"{shape[0]}x{shape[1]}"
        )


def _broken_valid_rows(array, fault_map: FaultMap) -> list[int]:
    """Valid rows whose lookups the fault map can corrupt, in row order."""
    valid = array.valid_mask()
    return [int(r) for r in np.flatnonzero(fault_map.faulty_rows() & valid)]
