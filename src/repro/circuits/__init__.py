"""Circuit-level behavioral models: wires, RC transients, match/search lines.

This layer turns device currents and capacitances into the waveforms,
delays and energies the TCAM array accounting consumes.  Match lines are
solved as lumped nonlinear-discharge ODEs (the pull-down current depends on
the instantaneous ML voltage through the device I-V); search lines and
precharge devices are handled with standard switched-capacitor energy
models.
"""

from .wire import WireModel, M2_WIRE, M4_WIRE
from .rc import discharge_time, discharge_waveform
from .matchline import MatchLine, MatchLineLoad, MatchLineResult, composite_current
from .nandstring import NANDMatchString, NANDStringParams, NANDStringResult
from .searchline import SearchLine
from .senseamp import CurrentRaceSenseAmp, SenseDecision, VoltageSenseAmp
from .precharge import ClampedPrecharge, FullSwingPrecharge, PrechargeScheme

__all__ = [
    "WireModel",
    "M2_WIRE",
    "M4_WIRE",
    "discharge_time",
    "discharge_waveform",
    "MatchLine",
    "MatchLineLoad",
    "MatchLineResult",
    "composite_current",
    "NANDMatchString",
    "NANDStringParams",
    "NANDStringResult",
    "SearchLine",
    "SenseDecision",
    "VoltageSenseAmp",
    "CurrentRaceSenseAmp",
    "PrechargeScheme",
    "FullSwingPrecharge",
    "ClampedPrecharge",
]
