"""repro -- energy-aware ferroelectric TCAM design library.

A behavioral reproduction of *Energy-Aware Designs of Ferroelectric
Ternary Content Addressable Memory* (DATE 2021): FeFET device models,
TCAM cell/array/bank simulation with full energy accounting, CMOS and
ReRAM baselines, the proposed low-voltage (LV) and current-race (CR)
energy-aware designs, Monte-Carlo robustness analysis, and application
workloads (IP routing, packet classification, hyperdimensional
computing).

Quick start::

    import numpy as np
    from repro import ArrayGeometry, build_array, get_design, random_word

    geo = ArrayGeometry(rows=64, cols=64)
    array = build_array(get_design("fefet2t_lv"), geo)
    rng = np.random.default_rng(0)
    array.load([random_word(64, rng, x_fraction=0.3) for _ in range(64)])
    out = array.search(random_word(64, rng))
    print(out.first_match, out.energy_total)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .errors import (
    AnalysisError,
    CapacityError,
    CircuitError,
    DesignError,
    DeviceError,
    FaultError,
    ReproError,
    TCAMError,
    WorkloadError,
)
from .faults import FaultCampaign, FaultKind, FaultMap
from .tcam import (
    ArrayGeometry,
    BaseOutcome,
    NearestMatchOutcome,
    SearchOutcome,
    SegmentedBank,
    TCAMArray,
    TernaryWord,
    Trit,
    WriteOutcome,
    random_word,
    word_from_string,
)
from .core import (
    DESIGN_NAMES,
    DesignSpec,
    TechniqueSet,
    all_designs,
    build_array,
    get_design,
    minimum_ml_voltage,
)
from .energy import EnergyComponent, EnergyLedger

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "DeviceError",
    "CircuitError",
    "TCAMError",
    "CapacityError",
    "DesignError",
    "AnalysisError",
    "WorkloadError",
    "FaultError",
    # faults
    "FaultKind",
    "FaultMap",
    "FaultCampaign",
    # tcam
    "Trit",
    "TernaryWord",
    "word_from_string",
    "random_word",
    "TCAMArray",
    "ArrayGeometry",
    "BaseOutcome",
    "SearchOutcome",
    "NearestMatchOutcome",
    "WriteOutcome",
    "SegmentedBank",
    # core designs
    "DesignSpec",
    "DESIGN_NAMES",
    "get_design",
    "all_designs",
    "build_array",
    "TechniqueSet",
    "minimum_ml_voltage",
    # energy
    "EnergyLedger",
    "EnergyComponent",
]
