"""Behavioral FeFET: ferroelectric polarization -> threshold voltage -> I-V.

The FeFET is modelled as the EKV transistor core of :mod:`.mosfet` whose
threshold voltage is set by the normalized remanent polarization ``p`` of an
attached :class:`~repro.devices.preisach.PreisachModel`::

    vt(p) = vt_mid - p * memory_window / 2

``p = +1`` (polarization pointing toward the channel) gives the low-VT
("LVT", erased/storing conductive) state, ``p = -1`` the high-VT ("HVT")
state.  The memory window defaults to 1.2 V, in the middle of the window
reported for 28 nm HKMG FeFETs (1.0-1.5 V).

Program and erase are voltage pulses on the gate; their energy is the
switched polarization charge times the pulse voltage plus the CV^2 of the
gate stack -- the dominant terms of FeFET write energy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DeviceError
from ..units import NANO, thermal_voltage
from .material import FerroMaterial, HZO_10NM
from .mosfet import ekv_current
from .preisach import PreisachModel, SwitchingPulse


class FeFETState(enum.Enum):
    """Logical storage state of a FeFET."""

    LVT = "lvt"
    HVT = "hvt"

    def target_polarization(self) -> float:
        """Normalized polarization corresponding to this state."""
        return 1.0 if self is FeFETState.LVT else -1.0


@dataclass(frozen=True)
class FeFETParams:
    """Parameters of a behavioral FeFET.

    Attributes:
        name: Label for reports.
        material: Ferroelectric film description.
        vt_mid: Threshold voltage at zero remanent polarization [V].
        memory_window: Full LVT-to-HVT threshold separation [V].
        kp: Process transconductance [A/V^2] per square.
        n_slope: Subthreshold slope factor.
        lambda_cl: Channel-length modulation [1/V].
        width: Device width [m].
        length: Channel length [m].
        c_gate_per_area: Total gate-stack capacitance (FE + interlayer,
            series-combined) [F/m^2].
        c_junction_per_width: Drain junction capacitance per width [F/m].
        program_voltage: Nominal program pulse amplitude [V].
        program_width: Nominal program pulse width [s].
        n_domains: Hysterons in the attached Preisach ensemble.
    """

    name: str = "fefet28"
    material: FerroMaterial = HZO_10NM
    vt_mid: float = 0.70
    memory_window: float = 1.20
    kp: float = 300e-6
    n_slope: float = 1.35
    lambda_cl: float = 0.08
    width: float = 90 * NANO
    length: float = 30 * NANO
    c_gate_per_area: float = 1.5e-2
    c_junction_per_width: float = 0.75e-9
    program_voltage: float = 4.0
    program_width: float = 100e-9
    n_domains: int = 32

    def __post_init__(self) -> None:
        if self.memory_window <= 0.0:
            raise DeviceError(f"{self.name}: memory window must be positive")
        if self.width <= 0.0 or self.length <= 0.0:
            raise DeviceError(f"{self.name}: geometry must be positive")
        if self.program_voltage <= self.material.v_coercive:
            raise DeviceError(
                f"{self.name}: program voltage {self.program_voltage} V does not "
                f"exceed the coercive voltage {self.material.v_coercive:.2f} V"
            )

    def scaled(self, width: float) -> "FeFETParams":
        """Return a copy with a different device width."""
        return replace(self, width=width)

    @property
    def vt_lvt(self) -> float:
        """Threshold in the fully erased (low-VT) state [V]."""
        return self.vt_mid - self.memory_window / 2.0

    @property
    def vt_hvt(self) -> float:
        """Threshold in the fully programmed (high-VT) state [V]."""
        return self.vt_mid + self.memory_window / 2.0


@dataclass
class WriteResult:
    """Outcome of a program/erase pulse.

    Attributes:
        energy: Total write energy for this device [J].
        switched_charge: Polarization charge moved [C].
        polarization_after: Normalized polarization after the pulse.
        latency: Pulse width [s].
    """

    energy: float
    switched_charge: float
    polarization_after: float
    latency: float


class FeFET:
    """A single behavioral FeFET instance with hysteretic state.

    The device runs at 300 K; its Preisach ensemble is drawn from the
    film model's default seeded generator.

    Args:
        params: Device parameters.
    """

    def __init__(self, params: FeFETParams = FeFETParams()) -> None:
        self.params = params
        self._phi_t = thermal_voltage(300.0)
        self._film = PreisachModel(params.material, n_domains=params.n_domains)
        self._film.saturate(-1)  # power-on in the HVT state

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def polarization(self) -> float:
        """Normalized remanent polarization in [-1, +1]."""
        return self._film.normalized_polarization

    @property
    def vt(self) -> float:
        """Present threshold voltage [V]."""
        p = self.params
        return p.vt_mid - self.polarization * p.memory_window / 2.0

    @property
    def state(self) -> FeFETState:
        """Nearest logical state (LVT if polarization >= 0)."""
        return FeFETState.LVT if self.polarization >= 0.0 else FeFETState.HVT

    def force_state(self, state: FeFETState) -> None:
        """Set the stored state instantaneously (testing / initialization)."""
        self._film.set_normalized_polarization(state.target_polarization())

    # ------------------------------------------------------------------
    # I-V
    # ------------------------------------------------------------------

    @property
    def beta(self) -> float:
        """Transconductance factor kp * W/L [A/V^2]."""
        p = self.params
        return p.kp * p.width / p.length

    def current(self, vgs: float, vds: float) -> float:
        """Drain current [A] at the present polarization state."""
        return ekv_current(
            vgs,
            vds,
            self.vt,
            self.beta,
            self.params.n_slope,
            self._phi_t,
            self.params.lambda_cl,
        )

    def butterfly_curves(
        self, vgs_values: np.ndarray, vds: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """ID-VG curves in both states (the classic FeFET "butterfly").

        Returns:
            ``(id_lvt, id_hvt)`` arrays matching ``vgs_values``.  The stored
            state is restored afterwards.
        """
        saved = self.polarization
        self._film.set_normalized_polarization(1.0)
        id_lvt = np.array([self.current(float(v), vds) for v in vgs_values])
        self._film.set_normalized_polarization(-1.0)
        id_hvt = np.array([self.current(float(v), vds) for v in vgs_values])
        self._film.set_normalized_polarization(saved)
        return id_lvt, id_hvt

    # ------------------------------------------------------------------
    # Capacitances
    # ------------------------------------------------------------------

    @property
    def gate_capacitance(self) -> float:
        """Gate-stack capacitance [F]."""
        p = self.params
        return p.c_gate_per_area * p.width * p.length

    @property
    def junction_capacitance(self) -> float:
        """Drain junction capacitance [F] -- the FeFET's load on a match line."""
        return self.params.c_junction_per_width * self.params.width

    @property
    def gate_area(self) -> float:
        """Gate area [m^2]."""
        return self.params.width * self.params.length

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def write(self, state: FeFETState, stochastic: bool = False) -> WriteResult:
        """Program or erase the device with the nominal pulse.

        Args:
            state: Target logical state.
            stochastic: Resolve NLS switching stochastically (device studies)
                or deterministically (array-level energy accounting).
        """
        p = self.params
        amplitude = p.program_voltage * (1.0 if state is FeFETState.LVT else -1.0)
        return self.apply_write_pulse(SwitchingPulse(amplitude, p.program_width), stochastic)

    def apply_write_pulse(self, pulse: SwitchingPulse, stochastic: bool = False) -> WriteResult:
        """Apply an arbitrary gate pulse and account its energy."""
        before = self.polarization
        after = self._film.apply_pulse(pulse, stochastic=stochastic)
        q_switch = self._film.switched_charge_density(before, after) * self.gate_area
        # Polarization reversal charge plus one charge/discharge of the gate stack.
        energy = q_switch * abs(pulse.amplitude) + self.gate_capacitance * pulse.amplitude**2
        return WriteResult(
            energy=energy,
            switched_charge=q_switch,
            polarization_after=after,
            latency=pulse.width,
        )

    def nominal_write_energy(self, state: FeFETState) -> float:
        """Write energy of a full state flip with the nominal pulse [J].

        Analytic (no state mutation): full 2*Pr reversal plus gate CV^2.
        """
        p = self.params
        q_full = 2.0 * p.material.p_rem * self.gate_area
        return q_full * p.program_voltage + self.gate_capacitance * p.program_voltage**2

    def on_off_ratio(self, v_read: float, vds: float) -> float:
        """Ratio of LVT to HVT current at the read bias."""
        saved = self.polarization
        self._film.set_normalized_polarization(1.0)
        i_on = self.current(v_read, vds)
        self._film.set_normalized_polarization(-1.0)
        i_off = self.current(v_read, vds)
        self._film.set_normalized_polarization(saved)
        if i_off <= 0.0:
            return math.inf
        return i_on / i_off
