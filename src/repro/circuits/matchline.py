"""Match-line discharge model (NOR-type TCAM).

A NOR match line is a single node loaded by every cell in the word.  After
precharge to ``v_precharge`` the line is released; every *mismatching* cell
turns on a pull-down path and every *matching* cell contributes only
leakage.  The resulting dynamics are a one-pole nonlinear discharge

    C_ML * dV/dt = -[ n_miss * i_pd(V) + n_match * i_leak(V) ]

which this module solves exactly (quadrature) for delays and numerically
(RK4) for waveforms.  The cell models in :mod:`repro.tcam.cells` supply the
per-cell current functions; this module is agnostic to the technology.

:func:`composite_current` is the one expression for the bracketed total.
It is elementwise, so the same call serves one line at one voltage, one
line over a quadrature grid, and a whole stack of lines (every class of
a waveform-table build, every fault signature of a batch) per RK4 stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import CircuitError
from .rc import charge_energy, discharge_time, discharge_waveform

CurrentOfVoltage = Callable[[float], float]


def composite_current(
    v: float | np.ndarray,
    i_pulldown: Callable,
    i_leak: Callable,
    n_miss: int | np.ndarray,
    n_match: int | np.ndarray,
    weak_offsets: np.ndarray | None = None,
    weak_mask: np.ndarray | None = None,
) -> float | np.ndarray:
    """Total discharge current of match lines at voltage(s) ``v`` [A].

    ``n_miss * i_pulldown(v)``, plus one ``i_pulldown(v, dvt)`` per
    weakened pull-down in ``weak_offsets`` column order, plus
    ``n_match * i_leak(v)``, summed left to right.  ``v``, ``n_miss``
    and ``n_match`` broadcast elementwise, so a scalar call is bit for
    bit the matching element of a stacked one.

    Args:
        v: Line voltage(s) [V], a scalar or an ``(n,)`` array.
        i_pulldown: Per-cell pull-down ``i(v, vt_offset=0.0)`` [A].
        i_leak: Per-cell matched-cell leakage ``i(v)`` [A].
        n_miss: Intact pull-downs per line.
        n_match: Leaking matched cells per line.
        weak_offsets: ``(n, w)`` threshold shifts of each line's
            retention-weakened pull-downs [V], padded on the right.
        weak_mask: ``(n, w)`` boolean mask of the real entries of
            ``weak_offsets``; padding adds an exact ``0.0``.
    """
    total = n_miss * i_pulldown(v)
    if weak_offsets is not None and weak_offsets.shape[1]:
        weak = np.where(weak_mask, i_pulldown(v[:, np.newaxis], weak_offsets), 0.0)
        for column in weak.T:
            total = total + column
    return total + n_match * i_leak(v)


@dataclass(frozen=True)
class MatchLineLoad:
    """Electrical load on one match line for one search operation.

    Attributes:
        capacitance: Total ML capacitance (cells + wire + SA input) [F].
        n_miss: Number of mismatching cells (each drives ``i_pulldown``).
        n_match: Number of matching cells (each drives ``i_leak``).
        i_pulldown: Per-cell pull-down current vs ML voltage [A].
        i_leak: Per-cell leakage current vs ML voltage [A].
    """

    capacitance: float
    n_miss: int
    n_match: int
    i_pulldown: CurrentOfVoltage
    i_leak: CurrentOfVoltage

    def __post_init__(self) -> None:
        if self.capacitance <= 0.0:
            raise CircuitError(f"ML capacitance must be positive, got {self.capacitance}")
        if self.n_miss < 0 or self.n_match < 0:
            raise CircuitError("cell counts must be non-negative")
        if self.n_miss + self.n_match == 0:
            raise CircuitError("match line must carry at least one cell")

    def total_current(self, v_ml: float | np.ndarray) -> float | np.ndarray:
        """Total discharge current at ML voltage(s) ``v_ml`` [A]."""
        return composite_current(
            v_ml, self.i_pulldown, self.i_leak, self.n_miss, self.n_match
        )


@dataclass(frozen=True)
class MatchLineResult:
    """Outcome of evaluating one match line for one search.

    Attributes:
        is_match: True when the line stayed above the sense threshold for
            the whole evaluation window.
        t_discharge: Time to cross the sense threshold [s]; ``inf`` when the
            line never crosses within the modelled window.
        v_at_sense: ML voltage at the sensing instant [V].
        energy_precharge: Energy drawn from the supply to (re)charge the
            line for this search [J].
        energy_dissipated: Energy burned in the pull-down paths [J].
    """

    is_match: bool
    t_discharge: float
    v_at_sense: float
    energy_precharge: float
    energy_dissipated: float


class MatchLine:
    """One NOR match line under a specific precharge scheme.

    Args:
        load: Cell loading for the search being evaluated.
        v_precharge: Voltage the line is precharged to [V].
        v_supply: Supply the precharge charge is drawn from [V]; for a
            full-swing scheme this equals ``v_precharge``, for a clamped
            scheme it is VDD while ``v_precharge`` is lower.
    """

    def __init__(self, load: MatchLineLoad, v_precharge: float, v_supply: float) -> None:
        if v_precharge <= 0.0:
            raise CircuitError(f"precharge voltage must be positive, got {v_precharge}")
        if v_supply < v_precharge:
            raise CircuitError(
                f"supply ({v_supply} V) must be >= precharge target ({v_precharge} V)"
            )
        self.load = load
        self.v_precharge = v_precharge
        self.v_supply = v_supply

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def time_to(self, v_target: float) -> float:
        """Time for the line to fall from precharge to ``v_target`` [s]."""
        if v_target >= self.v_precharge:
            raise CircuitError(
                f"target {v_target} V must be below precharge {self.v_precharge} V"
            )
        return discharge_time(
            self.load.capacitance, self.load.total_current, self.v_precharge, v_target
        )

    def waveform(self, t_grid: np.ndarray) -> np.ndarray:
        """ML voltage trajectory over ``t_grid`` (RK4)."""
        return discharge_waveform(
            self.load.capacitance, self.load.total_current, self.v_precharge, t_grid
        )

    def voltage_after(self, t_eval: float) -> float:
        """ML voltage after an evaluation window of ``t_eval`` seconds."""
        if t_eval < 0.0:
            raise CircuitError(f"evaluation time must be non-negative, got {t_eval}")
        if t_eval == 0.0:
            return self.v_precharge
        grid = np.linspace(0.0, t_eval, 65)
        return float(self.waveform(grid)[-1])

    # ------------------------------------------------------------------
    # Search evaluation
    # ------------------------------------------------------------------

    def evaluate(self, v_sense: float, t_eval: float) -> MatchLineResult:
        """Run one precharge + evaluate cycle and account energy.

        Args:
            v_sense: Sense-amplifier decision threshold [V].
            t_eval: Evaluation window before the SA strobes [s].
        """
        if not 0.0 < v_sense < self.v_precharge:
            raise CircuitError(
                f"sense threshold {v_sense} V must lie inside (0, {self.v_precharge}) V"
            )
        t_cross = self.time_to(v_sense)
        is_match = t_cross > t_eval
        v_end = self.voltage_after(t_eval)

        # The next precharge must restore whatever swing was lost this cycle.
        swing_lost = self.v_precharge - v_end
        e_pre = charge_energy(self.load.capacitance, swing_lost, self.v_supply)
        # All charge removed from the line is burned in the pull-down paths.
        e_diss = 0.5 * self.load.capacitance * (self.v_precharge**2 - v_end**2)
        return MatchLineResult(
            is_match=is_match,
            t_discharge=t_cross,
            v_at_sense=v_end,
            energy_precharge=e_pre,
            energy_dissipated=e_diss,
        )

    def worst_case_margin(self, t_eval: float, single_miss_load: "MatchLineLoad") -> float:
        """Sense margin: V(match) - V(1-mismatch) at the strobe instant [V].

        The critical TCAM corner is distinguishing a full match (leakage
        droop only) from a word with exactly one mismatch (one pull-down).

        Args:
            t_eval: Evaluation window [s].
            single_miss_load: The same line re-loaded with ``n_miss == 1``.
        """
        if single_miss_load.n_miss != 1:
            raise CircuitError("single_miss_load must have exactly one mismatching cell")
        v_match = self.voltage_after(t_eval)
        rival = MatchLine(single_miss_load, self.v_precharge, self.v_supply)
        v_miss = rival.voltage_after(t_eval)
        return v_match - v_miss


def ideal_discharge_delay(
    capacitance: float, i_pulldown_at_vpre: float, v_precharge: float, v_sense: float
) -> float:
    """First-order delay estimate ``C * dV / I`` [s].

    The constant-current approximation used in hand analysis; the test
    suite checks the exact quadrature stays within a small factor of this.
    """
    if i_pulldown_at_vpre <= 0.0:
        return math.inf
    if capacitance <= 0.0:
        raise CircuitError(f"capacitance must be positive, got {capacitance}")
    dv = v_precharge - v_sense
    if dv <= 0.0:
        raise CircuitError("sense threshold must be below precharge voltage")
    return capacitance * dv / i_pulldown_at_vpre
