"""Weighted-distance (analog) TCAM array on MLC FeFET cells.

Each stored cell carries a ternary value *and* an integer weight; a
mismatching cell sinks a pull-down current that grows with its weight.
A searched row's match line therefore discharges at a rate proportional
to the row's *weighted* mismatch count, and the time its line crosses
the sense reference is a monotone analog readout of the weighted
Hamming distance -- time-domain in-memory similarity search.

:meth:`WeightedTCAMArray.distance_search` reports every row's crossing
time plus the best (slowest-crossing) row, and the test suite checks the
crossing-time order agrees with the software-computed weighted distances
-- the property that makes the analog readout usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.rc import discharge_time
from ..circuits.wire import M2_WIRE
from ..energy.accounting import EnergyComponent, EnergyLedger
from ..energy.estimator import WriteTables
from ..errors import TCAMError
from .area import cell_dimensions
from .array import ArrayGeometry, _check_row, _price_rows
from .cells.fefet_mlc import MLCFeFETCell
from .trit import TernaryWord, Trit, trit_block


@dataclass(frozen=True)
class DistanceSearchOutcome:
    """Result of one weighted-distance search.

    Attributes:
        crossing_times: Per-row time for the ML to cross the reference
            [s]; ``inf`` for rows with zero weighted mismatch (they only
            droop) and for invalid rows.
        distances: Software-computed weighted distances (the oracle).
        best_row: Row with the largest crossing time among valid rows
            (i.e. the smallest weighted distance), or ``None``.
        energy: Energy ledger for the operation [J].
    """

    crossing_times: np.ndarray
    distances: np.ndarray
    best_row: int | None
    energy: EnergyLedger


class WeightedTCAMArray:
    """Rows x cols MLC-FeFET array searched by weighted distance.

    Args:
        geometry: Array shape.
        cell: MLC cell descriptor.
        vdd: Supply / precharge voltage [V]; the time-domain readout
            senses the crossing of half of it.
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        cell: MLCFeFETCell | None = None,
        vdd: float | None = None,
    ) -> None:
        self.geometry = geometry
        self.cell = cell if cell is not None else MLCFeFETCell()
        self._write_table = WriteTables(self.cell.write_cost)
        self.vdd = vdd if vdd is not None else geometry.node.vdd_nominal
        if not self.vdd > 0.0:
            raise TCAMError(f"vdd must be positive, got {self.vdd}")
        self.v_sense = 0.5 * self.vdd

        rows, cols = geometry.rows, geometry.cols
        self._stored = np.full((rows, cols), int(Trit.X), dtype=np.int8)
        self._weights = np.ones((rows, cols), dtype=np.int16)
        self._valid = np.zeros(rows, dtype=bool)

        cell_w, _ = cell_dimensions(self.cell.area_f2, geometry.node)
        self.c_ml = (
            cols * self.cell.c_ml_per_cell
            + M2_WIRE.capacitance(cols * cell_w)
            + 0.3e-15  # sense/timing front-end
        )

    # ------------------------------------------------------------------

    def write(self, row: int, word: TernaryWord, weights: np.ndarray) -> EnergyLedger:
        """Store a word with per-cell weights.

        Args:
            row: Target row.
            word: Ternary values.
            weights: Integer strength levels in ``[1, n_levels]``, one per
                column (weights of X cells are ignored but validated).
        """
        row = _check_row(row, self.geometry.rows, "write")
        new = trit_block([word], self.geometry.cols, "write")
        w = np.asarray(weights)
        if w.shape != (self.geometry.cols,):
            raise TCAMError(
                f"weights must have shape ({self.geometry.cols},), got {w.shape}"
            )
        if np.any((w < 1) | (w > self.cell.n_levels)):
            raise TCAMError(
                f"weights must lie in [1, {self.cell.n_levels}]"
            )
        ledger = _price_rows(self._write_table, self._stored[row : row + 1], new)[0]
        self._stored[row] = new[0]
        self._weights[row] = w.astype(np.int16)
        self._valid[row] = True
        return ledger

    def weighted_distance(self, row: int, key: TernaryWord) -> int:
        """Software oracle: sum of weights over mismatching columns."""
        row = _check_row(row, self.geometry.rows, "weighted_distance")
        key_arr = key.as_array()
        stored = self._stored[row]
        x = int(Trit.X)
        mism = (stored != x) & (key_arr != x) & (stored != key_arr)
        return int(self._weights[row][mism].sum())

    # ------------------------------------------------------------------

    def distance_search(self, key: TernaryWord) -> DistanceSearchOutcome:
        """Time-domain weighted-distance search.

        Every valid row's ML is precharged and released; the crossing time
        of each line is computed exactly from its weighted pull-down
        ensemble.  Energy: all lines with any mismatch fully discharge (as
        in associative mode), plus the timing front-end per row.
        """
        if len(key) != self.geometry.cols:
            raise TCAMError(
                f"key width {len(key)} does not match cols {self.geometry.cols}"
            )
        rows, cols = self.geometry.rows, self.geometry.cols
        key_arr = key.as_array()
        x = int(Trit.X)
        driven = key_arr != x

        times = np.full(rows, np.inf)
        distances = np.zeros(rows, dtype=np.int64)
        ledger = EnergyLedger()
        n_discharged = 0

        for row in range(rows):
            if not self._valid[row]:
                continue
            stored = self._stored[row]
            mism = (stored != x) & driven & (stored != key_arr)
            distances[row] = int(self._weights[row][mism].sum())
            level_counts = np.bincount(
                self._weights[row][mism], minlength=self.cell.n_levels + 1
            )
            n_match = int(np.count_nonzero(driven)) - int(np.count_nonzero(mism))

            if not mism.any():
                continue  # pure-leak droop; crossing time stays inf
            n_discharged += 1

            def i_total(v: float, counts=level_counts, n_leak=n_match) -> float:
                total = n_leak * self.cell.i_leak(v)
                for level in range(1, self.cell.n_levels + 1):
                    c = int(counts[level])
                    if c:
                        total += c * self.cell.i_pulldown_level(v, level)
                return total

            times[row] = discharge_time(self.c_ml, i_total, self.vdd, self.v_sense)

        # Energy: discharged lines restore the full swing; the rest droop.
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            n_discharged * self.c_ml * self.vdd * self.vdd,
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            n_discharged * 0.5 * self.c_ml * self.vdd * self.vdd,
        )
        ledger.add(EnergyComponent.SENSE_AMP, rows * 1.2e-15 * self.vdd**2)

        valid_idx = np.flatnonzero(self._valid)
        best = None
        if valid_idx.size:
            # Smallest weighted distance == largest crossing time; ties
            # break toward the lower row index (argmax semantics).
            best = int(valid_idx[np.argmax(times[valid_idx])])
        return DistanceSearchOutcome(
            crossing_times=times,
            distances=distances,
            best_row=best,
            energy=ledger,
        )
