"""Behavioral MOSFET model (EKV-style smooth I-V).

A single smooth expression covers subthreshold, triode and saturation::

    I = 2 n beta phit^2 [ ln^2(1+e^((vp-vs)/(2 phit))) - ln^2(1+e^((vp-vd)/(2 phit))) ]

with the pinch-off voltage ``vp = (vgs - vt)/n``.  This interpolation is the
EKV long-channel core; it reproduces the exponential subthreshold slope
(``S = n * phit * ln 10``), a quadratic strong-inversion law and smooth
saturation -- exactly the dependencies the TCAM delay/energy analysis needs
from its access transistors, precharge devices and SL drivers.

Channel-length modulation is folded in as a ``(1 + lambda * vds)`` factor so
saturation currents keep a finite output conductance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import DeviceError
from ..units import NANO, thermal_voltage


_SCALAR = (int, float, np.integer, np.floating)


def ekv_current(
    vgs: float | np.ndarray,
    vds: float | np.ndarray,
    vt: float | np.ndarray,
    beta: float,
    n_slope: float,
    phi_t: float,
    lambda_cl: float = 0.0,
) -> float | np.ndarray:
    """Drain current [A] of the smooth EKV core (NMOS convention, vds >= 0).

    This is the one device-current reference of the simulator.  ``vgs``,
    ``vds`` and ``vt`` may be real scalars or numpy arrays that
    broadcast together; a call with three scalars returns a ``float``.
    The transcendentals are numpy's ``exp`` / ``log1p`` ufuncs for
    scalars and arrays alike and everything else is IEEE ``+ - * /``,
    so a scalar call is bit for bit the matching element of an array
    call (the cell and kernel bit-identity suites rest on this).

    Args:
        vgs: Gate-source voltage [V].
        vds: Drain-source voltage [V]; must be finite and non-negative.
        vt: Threshold voltage [V].
        beta: Transconductance factor ``kp * W / L`` [A/V^2].
        n_slope: Subthreshold slope factor (>= 1).
        phi_t: Thermal voltage kT/q [V].
        lambda_cl: Channel-length modulation [1/V].

    Raises:
        DeviceError: for a non-finite or negative ``vds`` (any element)
            or a slope factor below 1.
    """
    scalar = (
        isinstance(vds, _SCALAR) and isinstance(vgs, _SCALAR) and isinstance(vt, _SCALAR)
    )
    if scalar:
        valid = 0.0 <= vds < np.inf
    else:
        vds = np.asarray(vds, dtype=float)
        valid = not vds.size or (
            np.minimum.reduce(vds, axis=None) >= 0.0
            and np.maximum.reduce(vds, axis=None) < np.inf
        )
    if not valid:
        raise DeviceError(f"ekv_current expects a finite vds >= 0, got {vds}")
    if n_slope < 1.0:
        raise DeviceError(f"slope factor must be >= 1, got {n_slope}")
    vp = (vgs - vt) / n_slope
    i_fwd = _log1pexp_sq(vp / (2.0 * phi_t))
    i_rev = _log1pexp_sq((vp - vds) / (2.0 * phi_t))
    current = 2.0 * n_slope * beta * phi_t * phi_t * (i_fwd - i_rev)
    out = current * (1.0 + lambda_cl * vds)
    return float(out) if scalar or np.ndim(out) == 0 else out


def _log1pexp_sq(x):
    """Numerically safe ``ln(1+exp(x))**2``, elementwise.

    Above 30 the softplus is taken as ``x`` itself, below -30 the result
    as 0; arguments outside ``[-30, 30]`` never reach ``exp``.  A scalar
    takes the branch its array element would take through the masks.
    """
    if isinstance(x, float):
        if x > 30.0:
            return x * x
        if x < -30.0:
            return 0.0
        y = np.log1p(np.exp(x))
        return y * y
    y = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0)) * (x >= -30.0)))
    return y * y


@dataclass(frozen=True)
class MOSFETParams:
    """Parameters of a logic MOSFET.

    Attributes:
        name: Label for reports.
        polarity: ``"n"`` or ``"p"``.
        vt0: Zero-bias threshold voltage magnitude [V].
        kp: Process transconductance [A/V^2] (per W/L square).
        n_slope: Subthreshold slope factor.
        lambda_cl: Channel-length modulation [1/V].
        width: Device width [m].
        length: Channel length [m].
        c_ox_per_area: Gate-oxide capacitance [F/m^2].
        c_overlap_per_width: Gate overlap capacitance per width [F/m].
        c_junction_per_width: Drain/source junction capacitance per width [F/m].
    """

    name: str
    polarity: str
    vt0: float
    kp: float
    n_slope: float
    lambda_cl: float
    width: float
    length: float
    c_ox_per_area: float
    c_overlap_per_width: float
    c_junction_per_width: float

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise DeviceError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.width <= 0.0 or self.length <= 0.0:
            raise DeviceError(f"{self.name}: geometry must be positive")
        if self.kp <= 0.0:
            raise DeviceError(f"{self.name}: kp must be positive")

    def scaled(self, width: float) -> "MOSFETParams":
        """Return a copy with a different width (same everything else)."""
        return replace(self, width=width)


class MOSFET:
    """A behavioral logic transistor instance at 300 K.

    All terminal voltages are given in the NMOS convention (magnitudes).
    """

    def __init__(self, params: MOSFETParams) -> None:
        self.params = params
        self._phi_t = thermal_voltage(300.0)

    @property
    def beta(self) -> float:
        """Transconductance factor kp * W/L [A/V^2]."""
        p = self.params
        return p.kp * p.width / p.length

    @property
    def gate_capacitance(self) -> float:
        """Total gate capacitance (channel + overlap) [F]."""
        p = self.params
        return p.c_ox_per_area * p.width * p.length + 2.0 * p.c_overlap_per_width * p.width

    @property
    def junction_capacitance(self) -> float:
        """Drain (== source) junction capacitance [F]."""
        return self.params.c_junction_per_width * self.params.width

    def current(self, vgs: float, vds: float) -> float:
        """Drain current magnitude [A] (NMOS convention, vds >= 0)."""
        return ekv_current(
            vgs,
            vds,
            self.params.vt0,
            self.beta,
            self.params.n_slope,
            self._phi_t,
            self.params.lambda_cl,
        )

    def off_current(self, vdd: float) -> float:
        """Leakage at Vgs = 0, Vds = vdd [A]."""
        return self.current(0.0, vdd)


def nmos_45nm(width: float = 90 * NANO) -> MOSFETParams:
    """Representative 45 nm NMOS parameters (PTM-like orders of magnitude)."""
    return MOSFETParams(
        name="nmos45",
        polarity="n",
        vt0=0.42,
        kp=480e-6,
        n_slope=1.25,
        lambda_cl=0.10,
        width=width,
        length=45 * NANO,
        c_ox_per_area=1.2e-2,
        c_overlap_per_width=0.30 * 1e-9,  # 0.30 fF/um
        c_junction_per_width=0.80 * 1e-9,  # 0.80 fF/um
    )
