"""Energy accounting: ledgers, breakdowns and estimators."""

from .accounting import EnergyComponent, EnergyLedger
from .estimator import ArrayEstimator, CellEstimator, EnergyEstimator, EstimatorError

__all__ = [
    "EnergyComponent",
    "EnergyLedger",
    "EnergyEstimator",
    "CellEstimator",
    "ArrayEstimator",
    "EstimatorError",
]
