"""NAND-type FeFET TCAM array.

The architectural counterpoint to the NOR array (experiment R-F11): cells
of one word form a *series* string, so only fully matching words discharge
their evaluation node.  Miss-dominated traffic pays almost no match-path
energy -- at the cost of a string-RC delay that grows quadratically with
the word width, which is why NAND TCAMs are confined to short words or
segment-serial organizations.

Cell mapping (inverse polarity of the NOR cell): each ternary cell is two
FeFETs *in parallel* inside the series chain.  The device driven by the
search symbol must conduct iff the cell matches:

=========== =============== ===============
stored trit M_A (on SL)     M_B (on SLB)
=========== =============== ===============
``0``        LVT (match 0)   HVT
``1``        HVT             LVT (match 1)
``X``        LVT             LVT (always)
=========== =============== ===============

Searching ``X`` raises both lines so any healthy cell conducts.

The implementation reuses the NOR array's ternary store, write costing,
search-line and priority-encoder models, swapping the match path for
:class:`~repro.circuits.nandstring.NANDMatchString`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.nandstring import NANDMatchString, NANDStringParams
from ..circuits.searchline import SearchLine, count_toggles
from ..circuits.wire import M4_WIRE
from ..energy.accounting import EnergyComponent, EnergyLedger
from ..energy.estimator import WriteTables
from ..errors import TCAMError
from .area import cell_dimensions
from .array import (
    ArrayGeometry,
    SearchOutcome,
    WriteOutcome,
    _check_count,
    _check_row,
    _price_rows,
)
from .cells.fefet2t import FeFET2TCell, FeFET2TCellParams
from .priority import PriorityEncoder
from .trit import TernaryWord, Trit, mismatch_counts, nand_drive_vector, trit_block


@dataclass(frozen=True)
class NANDCellElectricals:
    """Series-path electricals of one NAND ternary cell.

    Attributes:
        r_on: On-resistance of a conducting (LVT, driven) device [ohm].
        c_node: Diffusion capacitance at the inter-cell node [F].
        i_off: Off current of a blocking cell [A].
        c_sl_gate: Gate load per search line [F].
    """

    r_on: float
    c_node: float
    i_off: float
    c_sl_gate: float


def nand_cell_electricals(params: FeFET2TCellParams | None = None) -> NANDCellElectricals:
    """Derive the NAND string electricals from the 2-FeFET cell device.

    The on-resistance is the LVT device linearized in triode at the search
    gate bias; the off current is the driven-HVT subthreshold path.
    """
    cell = FeFET2TCell(params)
    v_probe = 0.05
    i_on = cell.i_pulldown(v_probe)
    if i_on <= 0.0:
        raise TCAMError("NAND cell derivation: LVT device does not conduct")
    return NANDCellElectricals(
        r_on=v_probe / i_on,
        c_node=cell.c_ml_per_cell,  # two junctions at each internal node
        i_off=cell.i_leak(0.9),
        c_sl_gate=cell.c_sl_gate_per_cell,
    )


class NANDTCAMArray:
    """A rows x cols NAND-type FeFET TCAM array.

    Args:
        geometry: Array shape.
        vdd: Supply [V].

    The evaluation window :attr:`t_eval` is 2x the full-match string
    discharge time (the row-delay-critical quantity).
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        vdd: float | None = None,
    ) -> None:
        self.geometry = geometry
        self.vdd = vdd if vdd is not None else geometry.node.vdd_nominal
        # The same 2-FeFET cell as the NOR design.
        self.cell = FeFET2TCell()
        self._write_table = WriteTables(self.cell.write_cost)
        self.electricals = nand_cell_electricals(self.cell.params)

        self._stored = np.full(
            (geometry.rows, geometry.cols), int(Trit.X), dtype=np.int8
        )
        self._valid = np.zeros(geometry.rows, dtype=bool)
        self._last_drive: tuple[int, ...] | None = None

        _, cell_h = cell_dimensions(self.cell.area_f2, geometry.node)
        self.search_line = SearchLine(
            n_rows=geometry.rows,
            c_gate_per_cell=self.electricals.c_sl_gate,
            cell_pitch=cell_h,
            wire=M4_WIRE,
        )
        self._sl_r_driver = 2.0e3
        self.encoder = PriorityEncoder(geometry.rows)

        self.string_params = NANDStringParams(
            n_cells=geometry.cols,
            r_on_per_cell=self.electricals.r_on,
            c_node_per_cell=self.electricals.c_node,
            c_eval=1.0e-15,  # evaluation-node capacitance per word
            i_off_per_cell=self.electricals.i_off,
        )
        self.v_sense = 0.5 * self.vdd
        string = NANDMatchString(self.string_params, self.vdd, self.vdd)
        self._string = string
        self.t_eval = 2.0 * string.time_to(self.v_sense)

    # ------------------------------------------------------------------
    # Storage (shares the NOR array's conventions)
    # ------------------------------------------------------------------

    def write(self, row: int, word: TernaryWord) -> WriteOutcome:
        """Store ``word`` at ``row`` (same contract as the NOR array),
        priced from the cell's cached ``(old, new)`` transition tables."""
        row = _check_row(row, self.geometry.rows, "write")
        return self._store(row, trit_block([word], self.geometry.cols, "write"))

    def _store(self, row: int, new: np.ndarray) -> WriteOutcome:
        """Price and store the validated one-row block ``new`` at ``row``."""
        ledger, latency, changed = _price_rows(self._write_table, self._stored[row : row + 1], new)
        self._stored[row] = new[0]
        self._valid[row] = True
        return WriteOutcome(
            row=row, energy=ledger, latency=latency, cells_changed=int(np.count_nonzero(changed))
        )

    def load(self, words, start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows; ``words`` is a
        trit block or a sequence of words
        (:func:`~repro.tcam.trit.trit_block`), validated whole before the
        first row is stored."""
        start_row = _check_count(start_row, "load start_row", 0)
        block = trit_block(words, self.geometry.cols, "load")
        if start_row + len(block) > self.geometry.rows:
            raise TCAMError(
                f"cannot load {len(block)} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        ledger = EnergyLedger()
        for offset in range(len(block)):
            ledger.merge(self._store(start_row + offset, block[offset : offset + 1]).energy)
        return ledger

    def word_at(self, row: int) -> TernaryWord:
        """The stored word at ``row``."""
        return TernaryWord(self._stored[_check_row(row, self.geometry.rows, "word_at")])

    def invalidate(self, row: int) -> None:
        """Remove ``row`` from match participation (erase to all-X)."""
        row = _check_row(row, self.geometry.rows, "invalidate")
        self._stored[row] = int(Trit.X)
        self._valid[row] = False

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    @property
    def sl_settle_delay(self) -> float:
        """Search-line settling delay [s]."""
        return self.search_line.settle_delay(self._sl_r_driver)

    def search(self, key: TernaryWord | np.ndarray) -> SearchOutcome:
        """One NAND search with energy/delay accounting.

        A search-X column raises *both* lines (every cell conducts), so the
        mismatch count from the shared ternary algebra -- where X on either
        side matches -- carries over unchanged.  ``key`` is a
        :class:`TernaryWord` or a 1-D row of trit codes.
        """
        key_arr = trit_block([key], self.geometry.cols, "search")[0]
        miss = mismatch_counts(self._stored, key_arr)
        logical_match = (miss == 0) & self._valid

        ledger = EnergyLedger()
        self._book_searchline_energy(ledger, key_arr)

        physical = np.zeros(self.geometry.rows, dtype=bool)
        unique, counts = np.unique(miss, return_counts=True)
        for n_miss, n_rows in zip(unique, counts):
            result = self._string.evaluate(int(n_miss), self.v_sense, self.t_eval)
            physical[miss == n_miss] = result.conducts
            ledger.add(EnergyComponent.ML_PRECHARGE, float(n_rows) * result.energy)
            if int(n_miss) == 0:
                diss = 0.5 * self._string.total_capacitance * (
                    self.vdd**2 - result.v_end**2
                )
                ledger.add(EnergyComponent.ML_DISSIPATION, float(n_rows) * diss)
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.geometry.rows * 1.0e-15 * self.vdd**2,  # per-row eval latch
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.encoder.energy_per_search)

        effective = physical & self._valid
        first = self.encoder.encode(effective)
        search_delay = self.sl_settle_delay + self.t_eval + self.encoder.delay
        cycle_time = search_delay + 0.2 * self.t_eval  # eval-node restore

        leak = (
            self.geometry.rows
            * self.geometry.cols
            * self.cell.standby_leakage(self.vdd)
            * self.vdd
            * cycle_time
        )
        ledger.add(EnergyComponent.LEAKAGE, leak)

        histogram: dict[int, int] = {}
        for n in miss[self._valid]:
            histogram[int(n)] = histogram.get(int(n), 0) + 1
        errors = int(np.count_nonzero(effective != logical_match))
        return SearchOutcome(
            match_mask=effective,
            first_match=first,
            energy=ledger,
            search_delay=search_delay,
            cycle_time=cycle_time,
            miss_histogram=dict(sorted(histogram.items())),
            functional_errors=errors,
        )

    def search_batch(self, keys) -> list[SearchOutcome]:
        """Search many keys (a trit block or a sequence of words): a
        per-key loop over :meth:`search`, as the series strings share no
        cross-key work.  The whole batch is validated
        (:func:`~repro.tcam.trit.trit_block`) before the first key moves
        the search-line drive state."""
        block = trit_block(keys, self.geometry.cols, "search_batch")
        return [self.search(key) for key in block]

    def _book_searchline_energy(self, ledger: EnergyLedger, key_arr: np.ndarray) -> None:
        drive = nand_drive_vector(key_arr)
        previous = self._last_drive if self._last_drive is not None else tuple(
            0 for _ in drive
        )
        toggles = count_toggles(previous, drive)
        ledger.add(
            EnergyComponent.SEARCHLINE,
            toggles * self.search_line.toggle_energy(self.cell.v_search),
        )
        self._last_drive = drive

    def sense_margin(self) -> float:
        """Strobe-time separation [V] between a broken string (one miss,
        stays high) and a conducting one (full match, discharged)."""
        match = self._string.evaluate(0, self.v_sense, self.t_eval)
        broken = self._string.evaluate(1, self.v_sense, self.t_eval)
        return broken.v_end - match.v_end

    def standby_power(self) -> float:
        """Array standby power [W] (same cell leakage as the NOR array)."""
        return (
            self.geometry.rows
            * self.geometry.cols
            * self.cell.standby_leakage(self.vdd)
            * self.vdd
        )

    def valid_mask(self) -> np.ndarray:
        """Copy of the per-row valid bits."""
        return self._valid.copy()

    def stored_matrix(self) -> np.ndarray:
        """Copy of the stored trit encodings (rows x cols int8)."""
        return self._stored.copy()
