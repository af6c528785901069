"""Bearings-only target motion analysis with a towed line array.

The package tracks an underwater target from mirrored bearing pairs,
resolving the array's left-right ambiguity by running two Gaussian filters
in parallel and weighting them by measurement likelihood. It ships the
motion and measurement models, five filters (EKF, UKF, CKF, GHF, SRF),
the two-filter bank, a seeded Monte Carlo benchmark harness, and the
evaluation metrics (RMSE, bias norm, track loss, relative execution time).
"""

from .gaussfilt import (
    CKF,
    EKF,
    FILTER_KINDS,
    GHF,
    SRF,
    UKF,
    FilterNumericsError,
    GaussianBelief,
    UpdateOutcome,
)
from .kinematics import CT, CV, KNOT, MODEL_KINDS, MotionModel, ObserverState
from .lrtma import FilterBankState, InitPrior
from .sensing import BearingPair, ZeroRangeError
from .simkit import (
    KNOWN_SIDE,
    RESOLVED,
    RunRecord,
    RunSummary,
    ScenarioConfig,
    run_monte_carlo,
    simulate_run,
)

__version__ = "0.1.2"

__all__ = [
    "BearingPair",
    "CKF",
    "CT",
    "CV",
    "EKF",
    "FILTER_KINDS",
    "FilterBankState",
    "FilterNumericsError",
    "GHF",
    "GaussianBelief",
    "InitPrior",
    "KNOT",
    "KNOWN_SIDE",
    "MODEL_KINDS",
    "MotionModel",
    "ObserverState",
    "RESOLVED",
    "RunRecord",
    "RunSummary",
    "SRF",
    "ScenarioConfig",
    "UKF",
    "UpdateOutcome",
    "ZeroRangeError",
    "run_monte_carlo",
    "simulate_run",
    "__version__",
]
