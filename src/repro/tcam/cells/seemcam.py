"""SEE-MCAM-style multi-bit 2-FeFET TCAM cell.

A multi-bit CAM cell stores ``b`` bits in one 2-FeFET structure by
programming the ferroelectric to one of ``2^b`` polarization levels
(the SEE-MCAM idea: single-transistor-pair, multi-bit content).  The
search gate bias selects one level; only a cell whose stored level
differs from the searched one conducts.  Density improves by the factor
``b`` at unchanged footprint -- the cell *is* the binary 2-FeFET cell,
programmed more finely -- at the cost of a shrinking level-to-level
margin: the worst-case mismatch is an *adjacent* level, whose pull-down
is the weakest current step, and programming noise can park a level in
the wrong decision window.

The descriptor builds on :class:`~repro.tcam.cells.fefet_mlc.MLCFeFETCell`,
whose calibrated level placement already solves the equal-current-step
thresholds; what changes here is the exact-match reading of the levels:

* :meth:`SEEMCAMCell.i_pulldown` reports the **adjacent-level** (weakest)
  mismatch current -- the margin-setting case for multi-bit matching --
  where the MLC weighted cell reports the strongest.
* :meth:`SEEMCAMCell.write_cost` pays a program-verify loop whose pulse
  count grows with the bit count.
* :meth:`SEEMCAMCell.match_accuracy` prices the level-placement risk:
  the probability that a programmed threshold stays inside its decision
  window, from the minimum adjacent-level gap and the programming sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...errors import TCAMError
from ..cell import FloatOrArray, WriteCost
from ..trit import Trit
from .fefet2t import FeFET2TCellParams
from .fefet_mlc import MLCFeFETCell, MLCFeFETCellParams


@dataclass(frozen=True)
class SEEMCAMCellParams:
    """Parameters of the multi-bit (SEE-MCAM-style) 2-FeFET cell.

    Attributes:
        base: The underlying binary 2-FeFET cell parameters.
        bits: Stored bits per cell (>= 1); the cell programs
            ``2**bits`` polarization levels.
        level_sigma: Programming inaccuracy as a fraction of the memory
            window (std of the placed threshold); 0 = ideal placement.
        calibrated: Equal-current-step level placement (the calibration
            real multi-bit CAMs perform); linear-in-VT otherwise.
        verify_overhead: Extra program-verify pulses per additional bit,
            as a fraction of the binary program cost.
    """

    base: FeFET2TCellParams = field(default_factory=FeFET2TCellParams)
    bits: int = 2
    level_sigma: float = 0.01
    calibrated: bool = True
    verify_overhead: float = 0.5

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise TCAMError(f"bits must be >= 1, got {self.bits}")
        if self.bits > 4:
            raise TCAMError(
                f"bits={self.bits}: more than 16 polarization levels is "
                "outside the demonstrated FeFET window"
            )
        if self.verify_overhead < 0.0:
            raise TCAMError(
                f"verify_overhead must be non-negative, got {self.verify_overhead}"
            )


class SEEMCAMCell(MLCFeFETCell):
    """Descriptor for the multi-bit 2-FeFET exact-match CAM cell."""

    def __init__(self, params: SEEMCAMCellParams | None = None) -> None:
        self.mb_params = params if params is not None else SEEMCAMCellParams()
        super().__init__(
            MLCFeFETCellParams(
                base=self.mb_params.base,
                n_levels=2**self.mb_params.bits,
                level_sigma=self.mb_params.level_sigma,
                calibrated=self.mb_params.calibrated,
            )
        )

    # -- identity ----------------------------------------------------------

    @property
    def technology(self) -> str:
        return "seemcam"

    @property
    def bits(self) -> int:
        """Stored bits per cell."""
        return self.mb_params.bits

    @property
    def bits_per_cell(self) -> float:
        """Multi-bit density: ``bits`` per physical cell."""
        return float(self.mb_params.bits)

    # -- compare path -----------------------------------------------------------

    def i_pulldown(self, v_ml: FloatOrArray, vt_offset: FloatOrArray = 0.0) -> FloatOrArray:
        """Worst-case mismatch current: the adjacent-level step [A].

        With calibrated placement level ``w`` conducts ``w/L`` of the
        full current, so the margin-setting one-level mismatch carries
        the level-1 current -- the quantity exact multi-bit matching
        must sense over the match-side leakage.
        """
        return self.i_pulldown_level(v_ml, 1, vt_offset)

    # -- write path ----------------------------------------------------------

    def write_cost(self, old: Trit, new: Trit) -> WriteCost:
        """Binary erase+program plus a program-verify loop.

        Placing one of ``2^b`` levels takes trimmed partial-program
        pulses with verify reads between them; each bit past the first
        adds ``verify_overhead`` of the binary cost in both energy and
        time.
        """
        cost = self._binary.write_cost(old, new)
        scale = 1.0 + self.mb_params.verify_overhead * (self.mb_params.bits - 1)
        return WriteCost(energy=cost.energy * scale, latency=cost.latency * scale)

    # -- accuracy -----------------------------------------------------------

    def match_accuracy(self) -> float:
        """Per-cell probability a programmed level resolves correctly.

        A level is misread when programming noise pushes its threshold
        past the midpoint toward a neighbor, so the per-cell accuracy is
        ``erf(gap / (2 * sqrt(2) * sigma))`` over the *minimum* adjacent
        threshold gap (the calibrated placement compresses gaps near the
        strong end).
        """
        sigma_rel = self.mb_params.level_sigma
        if sigma_rel == 0.0:
            return 1.0
        f = self.params.base.fefet
        sigma_vt = sigma_rel * f.memory_window
        gaps = [
            abs(self._level_vts[level] - self._level_vts[level + 1])
            for level in range(1, self.params.n_levels)
        ]
        delta = min(gaps) if gaps else f.memory_window
        return math.erf(delta / (2.0 * math.sqrt(2.0) * sigma_vt))
