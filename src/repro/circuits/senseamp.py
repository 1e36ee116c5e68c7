"""Match-line sense amplifiers.

Two sensing styles are modelled:

* :class:`VoltageSenseAmp` -- a strobed latch compares the ML voltage with a
  reference after a fixed evaluation window (the conventional scheme for
  precharge-high NOR TCAMs).
* :class:`CurrentRaceSenseAmp` -- the ML starts low and a small current
  source races it up while mismatching cells hold it down (Arsovski-style).
  Only matching lines complete the swing, so miss-dominated traffic pays
  almost nothing -- this is the sensing used by Design CR.

Both report per-decision energy and a decision with margin, so the
Monte-Carlo yield analysis can inject offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import CircuitError


@dataclass(frozen=True)
class SenseDecision:
    """Result of strobing a sense amplifier.

    Attributes:
        is_match: The amplifier's match/mismatch verdict.
        margin: Signed input overdrive at the strobe [V]; positive values
            are comfortably decided, values inside the offset band flip in
            Monte-Carlo runs.
        energy: Energy consumed by the amplifier for this decision [J].
        delay: Sensing delay contribution [s].
    """

    is_match: bool
    margin: float
    energy: float
    delay: float


@dataclass(frozen=True)
class VoltageSenseAmp:
    """Strobed voltage latch.

    Attributes:
        v_ref: Decision threshold [V].
        offset: Static input-referred offset for this instance [V].
        c_input: Input load on the ML [F].
        c_internal: Internal switched capacitance per strobe [F].
        vdd: Supply of the latch [V].
        t_regen: Regeneration time constant [s].
    """

    v_ref: float
    offset: float = 0.0
    c_input: float = 0.2e-15
    c_internal: float = 1.0e-15
    vdd: float = 0.9
    t_regen: float = 20e-12

    def __post_init__(self) -> None:
        if self.v_ref <= 0.0:
            raise CircuitError(f"v_ref must be positive, got {self.v_ref}")
        if self.vdd <= 0.0:
            raise CircuitError(f"vdd must be positive, got {self.vdd}")

    @property
    def input_capacitance(self) -> float:
        """Capacitive load on the match line [F]."""
        return self.c_input

    def strobe(self, v_ml: float) -> SenseDecision:
        """Compare the ML voltage against the (offset-shifted) reference.

        A line still above threshold is declared a match (precharge-high
        NOR convention).
        """
        threshold = self.v_ref + self.offset
        margin = v_ml - threshold
        energy = self.c_internal * self.vdd * self.vdd
        # Latch regeneration slows as the input overdrive shrinks.
        overdrive = max(abs(margin), 1e-6)
        delay = self.t_regen * max(math.log(self.vdd / overdrive), 1.0)
        return SenseDecision(
            is_match=margin > 0.0,
            margin=margin,
            energy=energy,
            delay=delay,
        )


@dataclass(frozen=True)
class CurrentRaceSenseAmp:
    """Current-race scheme: charge the ML up against the pull-down paths.

    The ML is reset to ground; at evaluate, a PMOS current source of
    ``i_race`` amperes charges it.  On a full match nothing fights the
    source and the line crosses ``v_trip`` after ``C * v_trip / i_race``;
    any single mismatch sinks far more than ``i_race`` and pins the line
    near ground.

    A dummy *reference line* (always-match replica) trips shortly after the
    nominal match crossing and cuts every race source off globally, so a
    pinned (mismatching) line burns current only for ``cutoff_factor``
    times the nominal crossing -- not the full window.  That makes the
    per-line energy roughly ``C * v_trip * VDD`` regardless of outcome,
    i.e. a reduced *effective* swing without a precharge phase, which is
    Design CR's energy story.

    Attributes:
        i_race: Race current [A].
        v_trip: Trip point of the half-latch watching the ML [V].
        offset: Trip-point offset for this instance [V].
        c_input: SA load on the ML [F].
        c_internal: Internal switched capacitance per decision [F].
        vdd: Supply [V].
        t_window: Absolute upper bound on the evaluation window [s].
        cutoff_factor: Reference-line trip time as a multiple of the
            nominal clean-match crossing time.
    """

    i_race: float = 10.0e-6
    v_trip: float = 0.35
    offset: float = 0.0
    c_input: float = 0.2e-15
    c_internal: float = 0.8e-15
    vdd: float = 0.9
    t_window: float = 2e-9
    cutoff_factor: float = 1.3

    def __post_init__(self) -> None:
        if self.i_race <= 0.0:
            raise CircuitError(f"race current must be positive, got {self.i_race}")
        if not 0.0 < self.v_trip < self.vdd:
            raise CircuitError(f"trip point must be inside (0, vdd), got {self.v_trip}")
        if self.cutoff_factor < 1.0:
            raise CircuitError(
                f"cutoff factor must be >= 1 (reference trips after the match), "
                f"got {self.cutoff_factor}"
            )

    @property
    def input_capacitance(self) -> float:
        """Capacitive load on the match line [F]."""
        return self.c_input

    def cutoff_time(self, c_ml: float) -> float:
        """Time at which the reference line kills the race sources [s]."""
        if c_ml <= 0.0:
            raise CircuitError(f"c_ml must be positive, got {c_ml}")
        t_nominal = c_ml * self.v_trip / self.i_race
        return min(self.t_window, self.cutoff_factor * t_nominal)

    def evaluate(self, c_ml: float, i_pulldown_total: float) -> SenseDecision:
        """Race the current source against the total cell pull-down.

        Args:
            c_ml: Match-line capacitance [F].
            i_pulldown_total: Sum of mismatching-cell currents near the trip
                point [A]; pass the leakage sum for a matching word.
        """
        if c_ml <= 0.0:
            raise CircuitError(f"c_ml must be positive, got {c_ml}")
        if i_pulldown_total < 0.0:
            raise CircuitError("pull-down current must be non-negative")
        cutoff = self.cutoff_time(c_ml)
        trip = self.v_trip + self.offset
        if trip <= 0.0:
            # A grossly negative offset trips immediately: always "match".
            return SenseDecision(True, 0.0, self._latch_energy(), 0.0)

        net = self.i_race - i_pulldown_total
        if net <= 0.0:
            # Pull-down wins outright: the line never rises; the source
            # burns (through the pull-down) until the reference cuts it off.
            energy = self._latch_energy() + self.i_race * self.vdd * cutoff
            return SenseDecision(False, -trip, energy, cutoff)

        t_cross = c_ml * trip / net
        is_match = t_cross <= cutoff
        v_end = trip if is_match else net * cutoff / c_ml
        energy = self._latch_energy() + self.i_race * self.vdd * min(t_cross, cutoff)
        margin = (cutoff - t_cross) * net / c_ml if is_match else v_end - trip
        delay = min(t_cross, cutoff)
        return SenseDecision(is_match=is_match, margin=margin, energy=energy, delay=delay)

    def _latch_energy(self) -> float:
        """Half-latch switching energy per decision [J]."""
        return self.c_internal * self.vdd * self.vdd
