"""Physical constants, SI prefixes and engineering-notation helpers.

Every quantity inside :mod:`repro` is carried in base SI units (volts,
amperes, farads, joules, seconds, metres).  The constants below exist so
that call sites read like the hand calculations in a circuits paper::

    c_ml = 1.5 * FEMTO          # 1.5 fF
    t_fe = 10 * NANO            # 10 nm
    print(eng(c_ml, "F"))       # "1.5 fF"

Nothing here depends on the rest of the package.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# SI prefixes
# ---------------------------------------------------------------------------

ATTO = 1e-18
FEMTO = 1e-15
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

# ---------------------------------------------------------------------------
# Physical constants (CODATA 2018, truncated to the precision a behavioral
# device model can possibly justify)
# ---------------------------------------------------------------------------

Q_ELECTRON = 1.602176634e-19
"""Elementary charge [C]."""

K_BOLTZMANN = 1.380649e-23
"""Boltzmann constant [J/K]."""

EPSILON_0 = 8.8541878128e-12
"""Vacuum permittivity [F/m]."""

T_ROOM = 300.0
"""Default simulation temperature [K]."""

EPS_SIO2 = 3.9
"""Relative permittivity of SiO2."""

EPS_HZO = 30.0
"""Relative permittivity of Hf0.5Zr0.5O2 (HZO), typical reported range 25-35."""

EPS_SI = 11.7
"""Relative permittivity of silicon."""


def thermal_voltage(temperature_k: float = T_ROOM) -> float:
    """Return kT/q [V] at the given temperature.

    >>> round(thermal_voltage(300.0), 5)
    0.02585
    """
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return K_BOLTZMANN * temperature_k / Q_ELECTRON


_ENG_PREFIXES = {
    -18: "a",
    -15: "f",
    -12: "p",
    -9: "n",
    -6: "u",
    -3: "m",
    0: "",
    3: "k",
    6: "M",
    9: "G",
    12: "T",
}


def eng(value: float, unit: str = "") -> str:
    """Format *value* in engineering notation with an SI prefix, to three
    significant digits.

    >>> eng(1.5e-15, "F")
    '1.5 fF'
    >>> eng(0.0, "J")
    '0 J'
    >>> eng(-2.25e-12, "s")
    '-2.25 ps'
    """
    if value == 0.0 or not math.isfinite(value):
        return f"{value:g} {unit}".rstrip()
    exponent = int(math.floor(math.log10(abs(value)) / 3.0)) * 3
    exponent = max(-18, min(12, exponent))
    scaled = value / (10.0**exponent)
    prefix = _ENG_PREFIXES[exponent]
    text = f"{scaled:.3g}"
    return f"{text} {prefix}{unit}".rstrip()


def parallel(*resistances: float) -> float:
    """Resistance of resistors in parallel; infinite inputs are ignored.

    >>> parallel(2.0, 2.0)
    1.0
    >>> parallel(5.0, math.inf)
    5.0
    """
    if not resistances:
        raise ValueError("parallel() needs at least one resistance")
    conductance = 0.0
    for r in resistances:
        if r < 0.0:
            raise ValueError(f"resistance must be non-negative, got {r}")
        if r == 0.0:
            return 0.0
        if math.isfinite(r):
            conductance += 1.0 / r
    if conductance == 0.0:
        return math.inf
    return 1.0 / conductance


def celsius_to_kelvin(celsius: float) -> float:
    """Convert degrees Celsius to kelvin.

    >>> celsius_to_kelvin(25.0)
    298.15
    """
    kelvin = celsius + 273.15
    if kelvin <= 0.0:
        raise ValueError(f"temperature below absolute zero: {celsius} C")
    return kelvin
