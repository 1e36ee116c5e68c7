"""Process-variation models and samplers.

Variation enters the TCAM analysis through three channels:

* FeFET / MOSFET threshold-voltage mismatch (Pelgrom scaling with area),
* domain-count granularity of small ferroelectric gates,
* ReRAM resistance spread (handled inside :mod:`.resistive`).

Everything is sampled through an explicit :class:`numpy.random.Generator`
so Monte-Carlo runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError


@dataclass(frozen=True)
class VariationSpec:
    """Description of a variation corner for Monte-Carlo analysis.

    Attributes:
        sigma_vt_fefet: Std-dev of FeFET threshold mismatch [V].
        sigma_vt_mosfet: Std-dev of logic-transistor threshold mismatch [V].
        sigma_window_rel: Relative std-dev of the FeFET memory window.
        sigma_cap_rel: Relative std-dev of parasitic capacitances.
        sa_offset_sigma: Std-dev of sense-amplifier input offset [V].
    """

    sigma_vt_fefet: float = 0.054
    sigma_vt_mosfet: float = 0.030
    sigma_window_rel: float = 0.05
    sigma_cap_rel: float = 0.03
    sa_offset_sigma: float = 0.010

    def __post_init__(self) -> None:
        for name in (
            "sigma_vt_fefet",
            "sigma_vt_mosfet",
            "sigma_window_rel",
            "sigma_cap_rel",
            "sa_offset_sigma",
        ):
            if getattr(self, name) < 0.0:
                raise DeviceError(f"{name} must be non-negative")

    def scaled(self, factor: float) -> "VariationSpec":
        """Return a spec with every sigma multiplied by ``factor``.

        Used by the variation sweep in experiment R-F6.
        """
        if factor < 0.0:
            raise DeviceError(f"scale factor must be non-negative, got {factor}")
        return VariationSpec(
            sigma_vt_fefet=self.sigma_vt_fefet * factor,
            sigma_vt_mosfet=self.sigma_vt_mosfet * factor,
            sigma_window_rel=self.sigma_window_rel * factor,
            sigma_cap_rel=self.sigma_cap_rel * factor,
            sa_offset_sigma=self.sa_offset_sigma * factor,
        )


NOMINAL_VARIATION = VariationSpec()
"""Literature-typical 28 nm FeFET variation corner (sigma_VT ~ 54 mV)."""

NO_VARIATION = VariationSpec(0.0, 0.0, 0.0, 0.0, 0.0)
"""All sigmas zero -- for nominal-corner analyses."""


def pelgrom_sigma(a_vt: float, width: float, length: float) -> float:
    """Pelgrom-law mismatch sigma [V] for a device of the given geometry.

    Args:
        a_vt: Pelgrom coefficient [V*m] (e.g. 2.5 mV*um = 2.5e-9 V*m).
        width: Device width [m].
        length: Device length [m].
    """
    if width <= 0.0 or length <= 0.0:
        raise DeviceError("geometry must be positive")
    area = width * length
    return a_vt / float(np.sqrt(area))
