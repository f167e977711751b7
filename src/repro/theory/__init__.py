"""Section IV analysis: shuffling error and convergence bound."""

from .convergence import ConvergenceBound, convergence_bound
from .sampling import SamplingRunResult, compare_sampling_schemes, run_quadratic_sgd
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
    "SamplingRunResult",
    "compare_sampling_schemes",
    "run_quadratic_sgd",
    "convergence_bound",
    "ShufflingErrorPoint",
    "dominance_threshold",
    "error_table",
    "log_permutations",
    "log_sigma",
    "shuffling_error",
    "sigma_exact_tiny",
]
