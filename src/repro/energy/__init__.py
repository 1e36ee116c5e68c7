"""Energy accounting: ledgers, breakdowns and the array's estimator."""

from .accounting import EnergyComponent, EnergyLedger
from .estimator import ArrayEstimator

__all__ = [
    "EnergyComponent",
    "EnergyLedger",
    "ArrayEstimator",
]
