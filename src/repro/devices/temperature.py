"""Temperature dependence of the behavioral device models.

Captures the three first-order effects that move TCAM margins and energy
with temperature (experiment R-F10):

* threshold voltage decreases roughly linearly (~ -1 mV/K),
* mobility (and hence kp) degrades as ``(T/T0)^-1.5``,
* subthreshold leakage rises exponentially through the thermal voltage,
  which the EKV core already captures once VT and kp are rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import DeviceError
from ..units import T_ROOM
from .fefet import FeFETParams


@dataclass(frozen=True)
class TemperatureModel:
    """Scaling coefficients applied to device parameters vs temperature.

    Attributes:
        t_ref: Reference temperature at which parameters are specified [K].
        dvt_dt: Threshold-voltage temperature coefficient [V/K] (negative).
        mobility_exponent: Exponent of the mobility power law (negative).
        window_dt_rel: Relative memory-window shrinkage per kelvin (FeFET
            polarization softens slightly when hot).
    """

    t_ref: float = T_ROOM
    dvt_dt: float = -1.0e-3
    mobility_exponent: float = -1.5
    window_dt_rel: float = -4.0e-4

    def __post_init__(self) -> None:
        if self.t_ref <= 0.0:
            raise DeviceError(f"reference temperature must be positive, got {self.t_ref}")

    def _check(self, temperature_k: float) -> None:
        if temperature_k <= 0.0:
            raise DeviceError(f"temperature must be positive, got {temperature_k}")

    def vt_shift(self, temperature_k: float) -> float:
        """Threshold shift [V] relative to the reference temperature."""
        self._check(temperature_k)
        return self.dvt_dt * (temperature_k - self.t_ref)

    def kp_scale(self, temperature_k: float) -> float:
        """Multiplicative transconductance factor at ``temperature_k``."""
        self._check(temperature_k)
        return (temperature_k / self.t_ref) ** self.mobility_exponent

    def window_scale(self, temperature_k: float) -> float:
        """Multiplicative FeFET memory-window factor at ``temperature_k``."""
        self._check(temperature_k)
        scale = 1.0 + self.window_dt_rel * (temperature_k - self.t_ref)
        return max(scale, 0.1)

    def fefet_at(self, params: FeFETParams, temperature_k: float) -> FeFETParams:
        """Return FeFET parameters rescaled to ``temperature_k``."""
        return replace(
            params,
            vt_mid=params.vt_mid + self.vt_shift(temperature_k),
            kp=params.kp * self.kp_scale(temperature_k),
            memory_window=params.memory_window * self.window_scale(temperature_k),
        )
