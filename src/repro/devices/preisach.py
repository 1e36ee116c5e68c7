"""Multi-domain Preisach hysteresis model of a ferroelectric capacitor.

The film is discretized into ``n_domains`` rectangular hysterons.  Hysteron
``i`` carries a signed state ``s_i`` (+1 = polarization pointing "up") and a
coercive field ``ec_i`` drawn from a clipped normal distribution around the
material's mean coercive field.  Quasi-static fields flip hysterons whose
threshold is exceeded; finite pulses flip them stochastically following
nucleation-limited-switching (NLS) statistics with a Merz-law time constant.

This is the classical construction: it reproduces saturation loops, minor
loops, the wiping-out property and the congruency property, which the test
suite checks explicitly (``tests/devices/test_preisach.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError
from .material import FerroMaterial


@dataclass(frozen=True)
class SwitchingPulse:
    """A rectangular voltage pulse applied across the ferroelectric film.

    Attributes:
        amplitude: Pulse amplitude [V]; sign selects the switching direction.
        width: Pulse width [s]; must be positive.
    """

    amplitude: float
    width: float

    def __post_init__(self) -> None:
        if self.width <= 0.0:
            raise DeviceError(f"pulse width must be positive, got {self.width}")


@dataclass
class Hysteron:
    """A single rectangular hysteron (teaching/diagnostic use).

    The production path in :class:`PreisachModel` is vectorized; this scalar
    class exists so the hysteron semantics are documented and unit-testable
    in isolation.

    Attributes:
        ec: Coercive field magnitude [V/m].
        state: +1 or -1.
        imprint: Field offset shifting both thresholds [V/m].
    """

    ec: float
    state: int = -1
    imprint: float = 0.0

    def apply(self, field: float) -> int:
        """Apply a quasi-static field and return the resulting state."""
        if self.ec <= 0.0:
            raise DeviceError(f"hysteron coercive field must be positive, got {self.ec}")
        effective = field - self.imprint
        if effective >= self.ec:
            self.state = 1
        elif effective <= -self.ec:
            self.state = -1
        return self.state


class PreisachModel:
    """Vectorized multi-domain Preisach/NLS model of one ferroelectric film.

    Args:
        material: Film parameters.
        n_domains: Number of hysterons; more domains = smoother loops.
        rng: Random generator used to draw the coercive-field ensemble and
            to resolve stochastic pulse switching.
        imprint_field: Uniform field offset modelling imprint [V/m].

    The polarization reported by :attr:`polarization` is the remanent part
    only (``p_rem * mean(state)``); the linear dielectric response is added
    by callers that integrate charge (see :meth:`switched_charge_density`).
    """

    def __init__(
        self,
        material: FerroMaterial,
        n_domains: int = 64,
        rng: np.random.Generator | None = None,
        imprint_field: float = 0.0,
    ) -> None:
        if n_domains < 1:
            raise DeviceError(f"n_domains must be >= 1, got {n_domains}")
        self.material = material
        self.imprint_field = imprint_field
        self._rng = rng if rng is not None else np.random.default_rng(0)
        sigma = material.e_coercive * material.ec_sigma_rel
        raw = self._rng.normal(material.e_coercive, sigma, size=n_domains)
        # Clip to keep every hysteron physical (strictly positive threshold).
        floor = 0.05 * material.e_coercive
        self._ec = np.maximum(raw, floor)
        self._state = np.full(n_domains, -1.0)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def n_domains(self) -> int:
        """Number of hysterons in the ensemble."""
        return int(self._state.size)

    @property
    def normalized_polarization(self) -> float:
        """Mean hysteron state in [-1, +1]."""
        return float(self._state.mean())

    @property
    def polarization(self) -> float:
        """Remanent polarization [C/m^2] at zero applied field."""
        return self.material.p_rem * self.normalized_polarization

    def set_normalized_polarization(self, target: float) -> None:
        """Force the ensemble to an average state (used for initialization).

        Domains with the smallest coercive fields are flipped first, which is
        the physically ordered configuration a partial-switching pulse leaves.
        """
        if not -1.0 <= target <= 1.0:
            raise DeviceError(f"normalized polarization must be in [-1, 1], got {target}")
        n_up = int(round((target + 1.0) / 2.0 * self.n_domains))
        order = np.argsort(self._ec)
        self._state[:] = -1.0
        self._state[order[:n_up]] = 1.0

    # ------------------------------------------------------------------
    # Quasi-static drive
    # ------------------------------------------------------------------

    def apply_field(self, field: float) -> float:
        """Apply a quasi-static field [V/m]; return normalized polarization."""
        effective = field - self.imprint_field
        if effective > 0.0:
            self._state[self._ec <= effective] = 1.0
        elif effective < 0.0:
            self._state[self._ec <= -effective] = -1.0
        return self.normalized_polarization

    def apply_voltage(self, voltage: float) -> float:
        """Apply a quasi-static voltage across the film [V]."""
        return self.apply_field(self.material.field(voltage))

    def sweep(self, voltages: np.ndarray) -> np.ndarray:
        """Drive a sequence of quasi-static voltages; return P [C/m^2] per step."""
        out = np.empty(len(voltages))
        for i, v in enumerate(np.asarray(voltages, dtype=float)):
            self.apply_voltage(v)
            out[i] = self.polarization
        return out

    # ------------------------------------------------------------------
    # Pulse (NLS) drive
    # ------------------------------------------------------------------

    def apply_pulse(self, pulse: SwitchingPulse, stochastic: bool = True) -> float:
        """Apply a finite voltage pulse with NLS switching statistics.

        Each hysteron not already aligned with the pulse switches with
        probability ``1 - exp(-(width / tau_i))`` where ``tau_i`` follows
        Merz's law evaluated at the pulse field reduced by the hysteron's
        excess coercive field.  With ``stochastic=False`` the expected
        fraction switches deterministically (threshold at probability 0.5),
        which keeps Monte-Carlo analyses reproducible when the pulse response
        itself is not the quantity under study.

        Returns:
            The normalized polarization after the pulse.
        """
        field = self.material.field(pulse.amplitude) - self.imprint_field
        if field == 0.0:
            return self.normalized_polarization
        direction = 1.0 if field > 0.0 else -1.0
        magnitude = abs(field)

        candidates = self._state != direction
        if not candidates.any():
            return self.normalized_polarization

        # Domains with higher coercive field see a reduced effective field.
        excess = self._ec[candidates] - self.material.e_coercive
        eff = np.maximum(magnitude - excess, 0.0)
        probs = np.zeros(eff.shape)
        nonzero = eff > 0.0
        taus = np.array(
            [self.material.switching_time(e) for e in eff[nonzero]], dtype=float
        )
        with np.errstate(over="ignore"):
            ratio = np.where(np.isfinite(taus), pulse.width / taus, 0.0)
        probs[nonzero] = 1.0 - np.exp(-np.minimum(ratio, 700.0))

        if stochastic:
            flips = self._rng.random(probs.shape) < probs
        else:
            flips = probs >= 0.5
        idx = np.flatnonzero(candidates)[flips]
        self._state[idx] = direction
        return self.normalized_polarization

    def expected_polarization_after_pulses(
        self, pulse: SwitchingPulse, n_pulses: int
    ) -> float:
        """Expected normalized polarization after ``n_pulses`` identical pulses.

        Computed analytically (no state mutation): a domain opposing the
        pulse survives ``n`` pulses with probability
        ``exp(-n * width / tau_i)``, so the expectation sums per-domain
        survival.  This is the primitive behind the write-disturb analysis
        (experiment R-F13), where single-pulse flip probabilities are far
        too small for sampled simulation.

        Args:
            pulse: The repeated (disturb) pulse.
            n_pulses: How many times it is applied; must be >= 0.
        """
        if n_pulses < 0:
            raise DeviceError(f"n_pulses must be non-negative, got {n_pulses}")
        field = self.material.field(pulse.amplitude) - self.imprint_field
        if field == 0.0 or n_pulses == 0:
            return self.normalized_polarization
        direction = 1.0 if field > 0.0 else -1.0
        magnitude = abs(field)

        total = 0.0
        for ec, state in zip(self._ec, self._state):
            if state == direction:
                total += state
                continue
            eff = max(magnitude - (ec - self.material.e_coercive), 0.0)
            tau = self.material.switching_time(eff) if eff > 0.0 else np.inf
            if not np.isfinite(tau):
                total += state
                continue
            survive = np.exp(-min(n_pulses * pulse.width / tau, 700.0))
            total += state * survive + direction * (1.0 - survive)
        return float(total / self.n_domains)

    # ------------------------------------------------------------------
    # Charge / energy accounting
    # ------------------------------------------------------------------

    def switched_charge_density(self, before: float, after: float) -> float:
        """Polarization-switching charge density between two states [C/m^2].

        Args:
            before: Normalized polarization before the operation.
            after: Normalized polarization after the operation.
        """
        return abs(after - before) * self.material.p_rem

    def saturate(self, direction: int) -> float:
        """Drive the film to full saturation in ``direction`` (+1 or -1)."""
        if direction not in (1, -1):
            raise DeviceError(f"direction must be +1 or -1, got {direction}")
        # 5x the largest threshold guarantees every hysteron flips.
        field = direction * 5.0 * float(self._ec.max())
        return self.apply_field(field)


def saturation_loop(
    material: FerroMaterial,
    v_max: float,
    n_points: int = 201,
    n_domains: int = 512,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute a full saturation P-V loop.

    Returns:
        ``(voltages, polarizations)`` for a down-up-down triangular sweep
        starting from negative saturation, suitable for plotting Fig. R-F1.
    """
    if v_max <= 0.0:
        raise DeviceError(f"v_max must be positive, got {v_max}")
    if n_points < 3:
        raise DeviceError(f"n_points must be >= 3, got {n_points}")
    model = PreisachModel(material, n_domains=n_domains, rng=rng)
    model.saturate(-1)
    up = np.linspace(-v_max, v_max, n_points)
    down = np.linspace(v_max, -v_max, n_points)
    voltages = np.concatenate([up, down])
    polarizations = model.sweep(voltages)
    return voltages, polarizations


def loop_coercive_voltage(voltages: np.ndarray, polarizations: np.ndarray) -> float:
    """Extract the positive coercive voltage (P zero-crossing on the up branch).

    Args:
        voltages: Loop voltages as produced by :func:`saturation_loop`.
        polarizations: Matching polarization samples.
    """
    v = np.asarray(voltages, dtype=float)
    p = np.asarray(polarizations, dtype=float)
    if v.shape != p.shape or v.size < 2:
        raise DeviceError("voltages and polarizations must be equal-length (>=2)")
    half = v.size // 2
    v_up, p_up = v[:half], p[:half]
    sign_change = np.flatnonzero(np.diff(np.signbit(p_up)))
    if sign_change.size == 0:
        raise DeviceError("up-branch polarization never crosses zero")
    i = int(sign_change[0])
    # Linear interpolation between the bracketing samples.
    frac = -p_up[i] / (p_up[i + 1] - p_up[i])
    return float(v_up[i] + frac * (v_up[i + 1] - v_up[i]))


def remanent_window(material: FerroMaterial) -> float:
    """Full remanent polarization window 2*Pr [C/m^2]."""
    return 2.0 * material.p_rem
