"""RC transient primitives.

Three tools cover everything the TCAM layer needs:

* :func:`rc_step_response` / :class:`RCLine` -- closed-form single-pole and
  Elmore-approximated distributed RC responses (precharge, SL propagation),
* :func:`discharge_time` -- exact time for a capacitor discharged by an
  arbitrary voltage-dependent current ``i(v)``, by numerical quadrature of
  ``t = C * integral dv / i(v)``,
* :func:`discharge_waveform` -- the full ``v(t)`` trajectory by RK4
  integration, used for the waveform figure (R-F2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import obs
from ..errors import CircuitError


def rc_step_response(r: float, c: float, v_start: float, v_end: float, t: float) -> float:
    """Voltage at time ``t`` of a single-pole RC driven from v_start to v_end.

    >>> round(rc_step_response(1e3, 1e-12, 0.0, 1.0, 1e-9), 4)
    0.6321
    """
    if r <= 0.0 or c <= 0.0:
        raise CircuitError(f"R and C must be positive, got R={r}, C={c}")
    if t < 0.0:
        raise CircuitError(f"time must be non-negative, got {t}")
    return v_end + (v_start - v_end) * math.exp(-t / (r * c))


def rc_time_to_reach(r: float, c: float, v_start: float, v_end: float, v_target: float) -> float:
    """Time for a single-pole RC to move from v_start toward v_end to v_target.

    Raises:
        CircuitError: if ``v_target`` is not between start and end values.
    """
    if r <= 0.0 or c <= 0.0:
        raise CircuitError(f"R and C must be positive, got R={r}, C={c}")
    span = v_end - v_start
    remaining = v_end - v_target
    if span == 0.0:
        raise CircuitError("start and end voltages are equal; nothing to reach")
    frac = remaining / span
    if not 0.0 < frac <= 1.0:
        raise CircuitError(
            f"target {v_target} V is not between start {v_start} V and end {v_end} V"
        )
    return -r * c * math.log(frac)


def elmore_delay(r_total: float, c_total: float, distributed: bool = True) -> float:
    """50% Elmore delay of a wire [s].

    A distributed RC line has delay ``0.38 * R * C``; a lumped one
    ``0.69 * R * C`` (Rabaey).
    """
    if r_total < 0.0 or c_total < 0.0:
        raise CircuitError("R and C must be non-negative")
    factor = 0.38 if distributed else 0.69
    return factor * r_total * c_total


@dataclass(frozen=True)
class RCLine:
    """A driver charging a distributed wire plus lumped load.

    Attributes:
        r_driver: Driver equivalent resistance [ohm].
        r_wire: Total distributed wire resistance [ohm].
        c_wire: Total distributed wire capacitance [F].
        c_load: Lumped far-end load capacitance [F].
    """

    r_driver: float
    r_wire: float
    c_wire: float
    c_load: float

    def __post_init__(self) -> None:
        if min(self.r_driver, self.r_wire, self.c_wire, self.c_load) < 0.0:
            raise CircuitError("RCLine parameters must be non-negative")
        if self.r_driver == 0.0:
            raise CircuitError("driver resistance must be positive")

    @property
    def total_capacitance(self) -> float:
        """Total capacitance seen by the driver [F]."""
        return self.c_wire + self.c_load

    def delay_50pct(self) -> float:
        """Elmore 50% delay of driver + wire + load [s]."""
        tau = (
            0.69 * self.r_driver * (self.c_wire + self.c_load)
            + 0.38 * self.r_wire * self.c_wire
            + 0.69 * self.r_wire * self.c_load
        )
        return tau

    def settle_time(self, n_tau: float = 4.0) -> float:
        """Approximate full-settling time as ``n_tau`` Elmore constants [s]."""
        if n_tau <= 0.0:
            raise CircuitError(f"n_tau must be positive, got {n_tau}")
        return n_tau / 0.69 * self.delay_50pct()


CurrentOfVoltage = Callable[[float], float]


def discharge_time(
    capacitance: float,
    current: CurrentOfVoltage,
    v_start: float,
    v_stop: float,
    n_quad: int = 256,
) -> float:
    """Time for ``capacitance`` to discharge from v_start to v_stop [s].

    Integrates ``t = C * integral_{v_stop}^{v_start} dv / i(v)`` with the
    composite trapezoid rule.  ``current`` is called once, on the array of
    quadrature voltages, and must answer elementwise (a scalar answer is a
    constant current).  It must be strictly positive over the interval; a
    non-positive current means the line can never reach ``v_stop`` and
    ``inf`` is returned.

    Args:
        capacitance: Line capacitance [F].
        current: Discharge current as a function of line voltage [A],
            evaluated on a voltage array.
        v_start: Initial (higher) voltage [V].
        v_stop: Final (lower) voltage [V].
        n_quad: Number of quadrature intervals.
    """
    if capacitance <= 0.0:
        raise CircuitError(f"capacitance must be positive, got {capacitance}")
    if v_stop >= v_start:
        raise CircuitError(f"v_stop ({v_stop}) must be below v_start ({v_start})")
    if n_quad < 2:
        raise CircuitError(f"n_quad must be >= 2, got {n_quad}")
    voltages = np.linspace(v_stop, v_start, n_quad + 1)
    i = np.broadcast_to(np.asarray(current(voltages), dtype=float), voltages.shape)
    if (i <= 0.0).any():
        return math.inf
    integral = float(np.trapezoid(1.0 / i, voltages))
    return capacitance * integral


def discharge_waveform(
    capacitance: float,
    current: CurrentOfVoltage,
    v_start: float,
    t_grid: np.ndarray,
    v_floor: float = 0.0,
) -> np.ndarray:
    """Voltage trajectory ``v(t)`` of a capacitor discharged by ``current(v)``.

    Classic RK4 on ``dv/dt = -i(v)/C``, clamped at ``v_floor``.

    Args:
        capacitance: Line capacitance [F].
        current: Discharge current vs line voltage [A].
        v_start: Initial voltage [V].
        t_grid: Monotonically increasing time samples starting at 0 [s].
        v_floor: Voltage at which the discharge stops (ground) [V].
    """
    if capacitance <= 0.0:
        raise CircuitError(f"capacitance must be positive, got {capacitance}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise CircuitError("t_grid must be 1-D, start at 0 and strictly increase")

    def dv_dt(v: float) -> float:
        if v <= v_floor:
            return 0.0
        return -current(v) / capacitance

    out = np.empty_like(t)
    out[0] = v_start
    v = v_start
    for k in range(1, t.size):
        h = t[k] - t[k - 1]
        k1 = dv_dt(v)
        k2 = dv_dt(v + 0.5 * h * k1)
        k3 = dv_dt(v + 0.5 * h * k2)
        k4 = dv_dt(v + h * k3)
        v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = max(v, v_floor)
        out[k] = v
    return out


CurrentsOfVoltages = Callable[[np.ndarray], np.ndarray]


def discharge_waveform_batch(
    capacitance: float,
    currents: CurrentsOfVoltages,
    v_start: np.ndarray,
    t_grid: np.ndarray,
    v_floor: float = 0.0,
) -> np.ndarray:
    """Final voltages of many capacitor discharges integrated in one pass.

    The stacked-array counterpart of :func:`discharge_waveform`: ``n``
    independent discharges (e.g. the distinct mismatch classes of one
    search batch) share every RK4 step, with elementwise arithmetic that
    reproduces the scalar integrator bit-for-bit per element.  Only the
    endpoint ``v(t_grid[-1])`` is returned -- that is all the sensing
    layer consumes.

    Args:
        capacitance: Line capacitance, common to every trajectory [F].
        currents: Maps the stacked voltages ``(n,)`` to the stacked
            discharge currents ``(n,)`` [A].  Must tolerate any voltage
            the integrator visits (including at or below ``v_floor``).
        v_start: Initial voltage per trajectory, shape ``(n,)`` [V].
        t_grid: Monotonically increasing time samples starting at 0 [s].
        v_floor: Voltage at which a discharge stops (ground) [V].

    Returns:
        ``(n,)`` array of voltages at ``t_grid[-1]``.
    """
    if capacitance <= 0.0:
        raise CircuitError(f"capacitance must be positive, got {capacitance}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise CircuitError("t_grid must be 1-D, start at 0 and strictly increase")
    v = np.array(v_start, dtype=float)
    if v.ndim != 1:
        raise CircuitError(f"v_start must be 1-D, got shape {v.shape}")

    m = obs.metrics()
    if m is not None:
        m.counter("rk4.batched_integrations").inc()
        m.histogram("rk4.batch_size").observe(v.size)
        m.counter("rk4.steps").inc((t.size - 1) * v.size)

    def dv_dt(volts: np.ndarray) -> np.ndarray:
        return np.where(volts <= v_floor, 0.0, -np.asarray(currents(volts)) / capacitance)

    for k in range(1, t.size):
        h = t[k] - t[k - 1]
        k1 = dv_dt(v)
        k2 = dv_dt(v + 0.5 * h * k1)
        k3 = dv_dt(v + 0.5 * h * k2)
        k4 = dv_dt(v + h * k3)
        v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = np.maximum(v, v_floor)
    return v


def charge_energy(capacitance: float, v_swing: float, v_supply: float) -> float:
    """Energy drawn from a supply to charge C through ``v_swing`` [J].

    Charging a capacitor by ``v_swing`` from a supply at ``v_supply``
    (through any resistive path) draws ``C * v_swing * v_supply`` from that
    supply; half of it lands on the capacitor when v_swing == v_supply.
    """
    if capacitance < 0.0:
        raise CircuitError(f"capacitance must be non-negative, got {capacitance}")
    if v_swing < 0.0 or v_supply < 0.0:
        raise CircuitError("voltages must be non-negative")
    return capacitance * v_swing * v_supply
