"""Section IV analysis: shuffling error and convergence bound."""

from .convergence import ConvergenceBound, convergence_bound
from .shuffling_error import (
    is_overcounted,
    shuffling_error_monte_carlo,
    ShufflingErrorPoint,
    dominance_threshold,
    error_table,
    log_permutations,
    log_sigma,
    shuffling_error,
    sigma_exact_tiny,
)

__all__ = [
    "is_overcounted",
    "shuffling_error_monte_carlo",
    "ConvergenceBound",
    "convergence_bound",
    "ShufflingErrorPoint",
    "dominance_threshold",
    "error_table",
    "log_permutations",
    "log_sigma",
    "shuffling_error",
    "sigma_exact_tiny",
]
