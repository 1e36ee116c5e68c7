"""Behavioral device models: ferroelectric capacitors, FeFETs, MOSFETs, ReRAM.

This subpackage is the lowest layer of the library.  It replaces the SPICE
compact models a circuits paper would use (see DESIGN.md, substitution table)
with behavioral models that preserve the quantities the TCAM energy analysis
actually consumes: threshold-voltage windows, on/off current ratios, terminal
capacitances, and write-pulse energetics.
"""

from .material import FerroMaterial, HZO_10NM
from .preisach import (
    Hysteron,
    PreisachModel,
    SwitchingPulse,
    loop_coercive_voltage,
    saturation_loop,
)
from .fefet import FeFET, FeFETParams, FeFETState, WriteResult
from .mosfet import MOSFET, MOSFETParams, ekv_current, nmos_45nm
from .resistive import ReRAM, ReRAMParams, ReRAMState
from .variability import (
    NOMINAL_VARIATION,
    NO_VARIATION,
    VariationSpec,
    pelgrom_sigma,
)
from .temperature import TemperatureModel
from .landau import LandauKhalatnikov, LKParams

__all__ = [
    "FerroMaterial",
    "HZO_10NM",
    "Hysteron",
    "PreisachModel",
    "SwitchingPulse",
    "saturation_loop",
    "loop_coercive_voltage",
    "FeFET",
    "FeFETParams",
    "FeFETState",
    "WriteResult",
    "MOSFET",
    "MOSFETParams",
    "ekv_current",
    "nmos_45nm",
    "ReRAM",
    "ReRAMParams",
    "ReRAMState",
    "VariationSpec",
    "NOMINAL_VARIATION",
    "NO_VARIATION",
    "pelgrom_sigma",
    "TemperatureModel",
    "LKParams",
    "LandauKhalatnikov",
]
