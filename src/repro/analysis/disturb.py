"""Write-disturb analysis (experiment R-F13).

Writing one row of a FeFET array applies fractional program voltages to
every *unselected* cell sharing the driven lines -- the classic
half-select problem.  Under a V/2 biasing scheme a victim sees half the
program amplitude per neighbour write; under V/3 it sees a third.  Each
disturb pulse flips an (exponentially small) fraction of the victim's
ferroelectric domains, and the damage accumulates over the array's write
traffic until the threshold shift erodes the sense margin.

The analysis is exact expectation over the Preisach ensemble (see
:meth:`~repro.devices.preisach.PreisachModel.expected_polarization_after_pulses`);
sampled simulation is hopeless at per-pulse flip probabilities of 1e-4
and below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..devices.fefet import FeFETParams
from ..devices.preisach import PreisachModel, SwitchingPulse
from ..errors import AnalysisError


@dataclass(frozen=True)
class WriteScheme:
    """A write biasing scheme.

    Attributes:
        name: Label ("V/2", "V/3").
        disturb_fraction: Fraction of the program amplitude a victim sees.
    """

    name: str
    disturb_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.disturb_fraction < 1.0:
            raise AnalysisError(
                f"disturb fraction must be in (0, 1), got {self.disturb_fraction}"
            )


V_HALF = WriteScheme(name="V/2", disturb_fraction=0.5)
"""Half-select scheme: simplest drivers, strongest disturb."""

V_THIRD = WriteScheme(name="V/3", disturb_fraction=1.0 / 3.0)
"""Third-select scheme: the standard disturb-mitigation biasing."""


@dataclass(frozen=True)
class DisturbPoint:
    """Victim state after a number of disturb pulses.

    Attributes:
        n_pulses: Disturb pulses accumulated.
        polarization: Expected normalized polarization of the victim.
        vt_shift: Resulting threshold shift [V] (positive = toward HVT,
            i.e. a weakened stored-LVT device).
        retention_fraction: Remaining fraction of the initial polarization
            swing (1.0 = pristine, 0.0 = fully depolarized).
    """

    n_pulses: int
    polarization: float
    vt_shift: float
    retention_fraction: float


class DisturbAnalysis:
    """Accumulated-disturb trajectory of one stored-LVT victim cell.

    The worst-case victim stores LVT (polarization +1) and receives
    depolarizing (negative) disturb pulses -- the direction that weakens
    its compare pull-down and eventually turns stored data into phantom
    don't-cares.

    Args:
        fefet: Device parameters (program voltage/width, window, material).
        scheme: Write biasing scheme.
        seed: Ensemble seed.

    The expectation runs over a 256-domain Preisach ensemble.
    """

    def __init__(
        self,
        fefet: FeFETParams,
        scheme: WriteScheme,
        seed: int = 7,
    ) -> None:
        self.fefet = fefet
        self.scheme = scheme
        self._film = PreisachModel(
            fefet.material, n_domains=256, rng=np.random.default_rng(seed)
        )
        self._film.saturate(1)  # victim stores LVT
        self._pulse = SwitchingPulse(
            -fefet.program_voltage * scheme.disturb_fraction,
            fefet.program_width,
        )

    def point(self, n_pulses: int) -> DisturbPoint:
        """Victim state after ``n_pulses`` disturb pulses."""
        if n_pulses < 0:
            raise AnalysisError(f"n_pulses must be non-negative, got {n_pulses}")
        polarization = self._film.expected_polarization_after_pulses(self._pulse, n_pulses)
        # Polarization +1 -> vt_lvt; any loss moves VT up toward vt_mid.
        vt_shift = (1.0 - polarization) * self.fefet.memory_window / 2.0
        retention = (polarization + 1.0) / 2.0
        return DisturbPoint(
            n_pulses=n_pulses,
            polarization=polarization,
            vt_shift=vt_shift,
            retention_fraction=retention,
        )

    def trajectory(self, pulse_counts: list[int]) -> list[DisturbPoint]:
        """Evaluate a list of pulse counts (typically log-spaced)."""
        return [self.point(n) for n in pulse_counts]

    def pulses_to_vt_shift(self, vt_shift: float, n_max: int = 10**12) -> int | None:
        """Smallest pulse count whose expected VT shift reaches ``vt_shift``.

        Binary search over the (monotone) disturb trajectory; returns
        ``None`` when even ``n_max`` pulses stay below the target (the
        disturb-immune case, e.g. the V/3 scheme).
        """
        if vt_shift <= 0.0:
            raise AnalysisError(f"vt_shift must be positive, got {vt_shift}")
        if self.point(n_max).vt_shift < vt_shift:
            return None
        lo, hi = 0, n_max
        while lo < hi:
            mid = (lo + hi) // 2
            if self.point(mid).vt_shift >= vt_shift:
                hi = mid
            else:
                lo = mid + 1
        return lo
