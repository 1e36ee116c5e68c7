"""Thermal retention analysis (experiment R-F14).

A stored polarization state relaxes over time: imperfect charge screening
leaves a small depolarization field, and thermal activation lets domains
hop back over their (field-lowered) barriers.  The standard behavioral
model is an Arrhenius ensemble: domain ``i`` relaxes with

    tau_i = tau_attempt * exp( E_b,i / kT )

where the barrier ``E_b,i`` inherits the ensemble spread that shapes the
hysteresis loop.  The ensemble's polarization decays as a sum of
exponentials -- the familiar stretched-looking retention curve on a
log-time axis, with the weak-domain tail setting the early loss.

The barrier scale is *calibrated*, not assumed: the constructor solves for
the scale that reproduces the spec point FeFET papers quote -- 10% stored
polarization lost after ten years at 85 C.  Everything else (temperature
acceleration, the shape of the tail) follows from the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..devices.material import FerroMaterial
from ..errors import AnalysisError
from ..units import K_BOLTZMANN, Q_ELECTRON, celsius_to_kelvin

YEAR_SECONDS = 365.25 * 24 * 3600.0
_TAU_ATTEMPT = 1e-13  # phonon attempt time [s]


@dataclass(frozen=True)
class RetentionModel:
    """Calibrated Arrhenius retention ensemble for one ferroelectric film.

    Attributes:
        material: Film description (supplies the barrier spread through
            ``ec_sigma_rel``).
        n_domains: Ensemble resolution.
        seed: Ensemble seed.
        spec_time: Time of the calibration spec point [s].
        spec_temperature_k: Temperature of the spec point [K].
        spec_loss: Polarization loss fraction at the spec point.
    """

    material: FerroMaterial
    n_domains: int = 512
    seed: int = 3
    spec_time: float = 10.0 * YEAR_SECONDS
    spec_temperature_k: float = celsius_to_kelvin(85.0)
    spec_loss: float = 0.10

    def __post_init__(self) -> None:
        if self.n_domains < 1:
            raise AnalysisError(f"n_domains must be >= 1, got {self.n_domains}")
        if not 0.0 < self.spec_loss < 1.0:
            raise AnalysisError(f"spec loss must be in (0, 1), got {self.spec_loss}")
        if self.spec_time <= 0.0 or self.spec_temperature_k <= 0.0:
            raise AnalysisError("spec point must be positive")

    @cached_property
    def _barrier_spread(self) -> np.ndarray:
        """Unitless per-domain barrier factors (mean 1, clipped positive)."""
        rng = np.random.default_rng(self.seed)
        spread = rng.normal(1.0, self.material.ec_sigma_rel, size=self.n_domains)
        return np.maximum(spread, 0.05)

    @cached_property
    def barrier_scale_ev(self) -> float:
        """Calibrated median domain barrier [eV].

        Solved by bisection so that the ensemble loses exactly
        ``spec_loss`` at the spec point.
        """
        # A domain with barrier E_b retains past t when tau > ~t, i.e.
        # E_b > kT ln(t / tau_attempt); bracket the median around that.
        kt = K_BOLTZMANN * self.spec_temperature_k
        center = kt * math.log(self.spec_time / _TAU_ATTEMPT) / Q_ELECTRON
        lo, hi = 0.5 * center, 4.0 * center
        target = 1.0 - self.spec_loss
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fraction = self._retention_with_scale(
                mid, self.spec_time, self.spec_temperature_k
            )
            if fraction < target:
                lo = mid  # barriers too low -> too much loss -> raise them
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _retention_with_scale(
        self, scale_ev: float, time_s: float, temperature_k: float
    ) -> float:
        kt = K_BOLTZMANN * temperature_k
        barriers = scale_ev * Q_ELECTRON * self._barrier_spread
        with np.errstate(over="ignore"):
            taus = _TAU_ATTEMPT * np.exp(np.minimum(barriers / kt, 700.0))
        survive = np.exp(-np.minimum(time_s / taus, 700.0))
        return float(np.mean(survive))

    # ------------------------------------------------------------------

    def retention_fraction(self, time_s: float, temperature_k: float) -> float:
        """Fraction of the stored polarization surviving ``time_s`` [0..1]."""
        if time_s < 0.0:
            raise AnalysisError(f"time must be non-negative, got {time_s}")
        if temperature_k <= 0.0:
            raise AnalysisError(f"temperature must be positive, got {temperature_k}")
        if time_s == 0.0:
            return 1.0
        return self._retention_with_scale(self.barrier_scale_ev, time_s, temperature_k)

    def time_to_loss(self, loss_fraction: float, temperature_k: float) -> float:
        """Time until the stored polarization loses ``loss_fraction`` [s].

        Bisection on the (monotone) retention curve; returns ``inf`` when
        even ``1e14`` seconds (about three million years) stay below the
        loss target.
        """
        t_max = 1e14
        if not 0.0 < loss_fraction < 1.0:
            raise AnalysisError(
                f"loss fraction must be in (0, 1), got {loss_fraction}"
            )
        target = 1.0 - loss_fraction
        if self.retention_fraction(t_max, temperature_k) > target:
            return math.inf
        lo, hi = 0.0, t_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.retention_fraction(mid, temperature_k) > target:
                lo = mid
            else:
                hi = mid
        return hi
