"""Convergence-rate bound of §IV-B (Equation 6).

For the smooth non-convex case under insufficient shuffling (Meng et al.),
the paper quotes the upper bound

    O( sqrt(1/(S*N)) + log(N)/N + N * eps(A,N)^2 / (b*M) )

where N = dataset size, M = workers, b = per-worker batch size, S = epochs
and eps the shuffling error.  :func:`convergence_bound` evaluates the three
terms so benchmarks can show *which* term dominates for a given
configuration — the paper's point being that for practical sizes the third
(shuffling-error) term dwarfs the others, so the bound is vacuous for
explaining PLS's empirical success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .shuffling_error import shuffling_error

__all__ = ["ConvergenceBound", "convergence_bound"]


@dataclass(frozen=True)
class ConvergenceBound:
    """The three terms of Eq. 6 plus their sum."""

    statistical_term: float  # sqrt(1 / (S*N))
    log_term: float  # log(N)/N
    shuffle_term: float  # N * eps^2 / (b*M)
    epsilon: float

    @property
    def dominant_term(self) -> str:
        """Name of the largest of the three bound terms."""
        terms = {
            "statistical": self.statistical_term,
            "log": self.log_term,
            "shuffle": self.shuffle_term,
        }
        return max(terms, key=terms.get)


def convergence_bound(
    *,
    n: int,
    m: int,
    b: int,
    epochs: int,
    q: float | None = None,
    epsilon: float | None = None,
) -> ConvergenceBound:
    """Evaluate Eq. 6 for a configuration.

    Provide either ``q`` (the exchange fraction; epsilon is computed via
    Eq. 11) or an explicit ``epsilon``.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    if (q is None) == (epsilon is None):
        raise ValueError("provide exactly one of q or epsilon")
    if epsilon is None:
        epsilon = shuffling_error(n, m, q)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
    return ConvergenceBound(
        statistical_term=math.sqrt(1.0 / (epochs * n)),
        log_term=math.log(n) / n,
        shuffle_term=n * epsilon**2 / (b * m),
        epsilon=epsilon,
    )
