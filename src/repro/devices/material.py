"""Ferroelectric material parameter sets.

The numbers default to a 10 nm Hf0.5Zr0.5O2 (HZO) film, the material every
recent FeFET-TCAM demonstration uses.  Values are mid-range of the reported
literature (Pr 15-25 uC/cm^2, Ec 0.8-1.2 MV/cm) -- the behavioral layer only
needs them to be the right order of magnitude and mutually consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError
from ..units import EPSILON_0, EPS_HZO, NANO


@dataclass(frozen=True)
class FerroMaterial:
    """Quasi-static parameters of a ferroelectric film.

    Attributes:
        name: Human-readable label for reports.
        p_sat: Saturation polarization [C/m^2].
        p_rem: Remanent polarization [C/m^2]; must not exceed ``p_sat``.
        e_coercive: Mean coercive field [V/m].
        ec_sigma_rel: Relative spread of per-domain coercive fields.
        thickness: Film thickness [m].
        eps_rel: Background (non-switching) relative permittivity.
        tau0: NLS attempt time for pulse switching dynamics [s].
        e_activation: NLS activation field in Merz's law [V/m].
        merz_exponent: Exponent ``alpha`` in ``tau = tau0*exp((Ea/E)^alpha)``.
        endurance_cycles: Nominal program/erase endurance (for reports only).
    """

    name: str
    p_sat: float
    p_rem: float
    e_coercive: float
    ec_sigma_rel: float
    thickness: float
    eps_rel: float
    tau0: float
    e_activation: float
    merz_exponent: float
    endurance_cycles: float

    def __post_init__(self) -> None:
        if self.p_rem <= 0.0 or self.p_sat <= 0.0:
            raise DeviceError(f"{self.name}: polarizations must be positive")
        if self.p_rem > self.p_sat:
            raise DeviceError(
                f"{self.name}: remanent polarization {self.p_rem} exceeds "
                f"saturation polarization {self.p_sat}"
            )
        if self.e_coercive <= 0.0:
            raise DeviceError(f"{self.name}: coercive field must be positive")
        if self.thickness <= 0.0:
            raise DeviceError(f"{self.name}: thickness must be positive")
        if not 0.0 <= self.ec_sigma_rel < 1.0:
            raise DeviceError(
                f"{self.name}: ec_sigma_rel must be in [0, 1), got {self.ec_sigma_rel}"
            )

    @property
    def v_coercive(self) -> float:
        """Coercive voltage across the film [V]."""
        return self.e_coercive * self.thickness

    @property
    def capacitance_per_area(self) -> float:
        """Background (dielectric) capacitance per unit area [F/m^2]."""
        return EPSILON_0 * self.eps_rel / self.thickness

    def field(self, voltage: float) -> float:
        """Electric field [V/m] for a voltage across the film."""
        return voltage / self.thickness

    def switching_time(self, field: float) -> float:
        """Merz-law characteristic switching time at |field| [s].

        Returns ``inf`` for zero field (no switching drive) or for fields so
        weak that the Merz exponential overflows.
        """
        magnitude = abs(field)
        if magnitude <= 0.0:
            return math.inf
        exponent = (self.e_activation / magnitude) ** self.merz_exponent
        if exponent > 700.0:  # exp() overflow guard; effectively never switches
            return math.inf
        return self.tau0 * float(np.exp(exponent))


# 1 uC/cm^2 == 1e-2 C/m^2
_UC_PER_CM2 = 1e-2

HZO_10NM = FerroMaterial(
    name="HZO-10nm",
    p_sat=25.0 * _UC_PER_CM2,
    p_rem=20.0 * _UC_PER_CM2,
    e_coercive=1.0e8,  # 1 MV/cm expressed in V/m
    ec_sigma_rel=0.15,
    thickness=10 * NANO,
    eps_rel=EPS_HZO,
    tau0=1e-10,
    e_activation=4.0e8,
    merz_exponent=4.0,
    endurance_cycles=1e10,
)
"""Default 10 nm HZO film used throughout the library.

The Merz parameters (Ea = 4 MV/cm, alpha = 4) give the steep field
acceleration measured for HZO: ~0.3 ns switching at the 4 V program
pulse but ~1 ms at a 2 V half-select disturb -- the >6 decades of
write/disturb separation FeFET arrays rely on.
"""
