"""Radii of starlikeness and convexity of normalized regular Coulomb wave
functions: series evaluation, real-zero localization, certified transcendental
solvers, Rayleigh-sum bounds, and complex parameter-region checks."""

from .errors import (
    ConvergenceError,
    CoulombDomainError,
    CoulombError,
    DegenerateRecurrenceError,
    MonotonicityError,
    PoleError,
)
from .equations import conv_ratio, star_ratio
from .params import CoulombParams
from .series import (
    CoefficientTable,
    SeriesValue,
    coefficients,
    eval_point,
    eval_series,
)

__all__ = [
    "ConvergenceError",
    "CoulombDomainError",
    "CoulombError",
    "CoulombParams",
    "CoefficientTable",
    "DegenerateRecurrenceError",
    "MonotonicityError",
    "PoleError",
    "SeriesValue",
    "coefficients",
    "conv_ratio",
    "eval_point",
    "eval_series",
    "star_ratio",
]

__version__ = "0.1.0"
