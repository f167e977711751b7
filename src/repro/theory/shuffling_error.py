"""Shuffling-error analysis of §IV-B (Equations 7-11).

The paper builds on Meng et al.'s convergence analysis of distributed SGD
with insufficient shuffling.  The partial-local scheme restricts the
reachable permutations to a subset of size σ (Eq. 8/9):

    sigma = (N/M)! * P((M-1)N/M, QN/M) * P(N/M, QN/M) * ((M-1)N/M)!

out of the |N|! total permutations, giving total-variation shuffling error
(Eq. 10/11):

    epsilon(A, h, N) = 1 - sigma / N!

All factorials are evaluated in log-space (``scipy.special.gammaln``), since
the paper's regime is N ~ 1.2e6 where N! overflows anything.

The paper's conclusion — reproduced by :func:`error_table` and benchmark
SEC4B — is that for practical sizes (ImageNet, 4 <= M <= 100,000, global
batch < 100K) epsilon ~= 1, i.e. the bound is dominated by the shuffling
error and therefore *cannot* explain why local shuffling works; the
evidence must be (and is) empirical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "log_sigma",
    "log_permutations",
    "shuffling_error",
    "dominance_threshold",
    "ShufflingErrorPoint",
    "error_table",
]


def _log_factorial(n: float) -> float:
    if n < 0:
        raise ValueError(f"factorial of negative value {n}")
    return float(gammaln(n + 1.0))


def _log_falling_factorial(n: float, k: float) -> float:
    """log of P(n, k) = n! / (n-k)!"""
    if k < 0 or k > n:
        raise ValueError(f"invalid falling factorial P({n}, {k})")
    return _log_factorial(n) - _log_factorial(n - k)


def _validate(n: int, m: int, q: float) -> None:
    if m < 1:
        raise ValueError(f"workers M must be >= 1, got {m}")
    if n < m:
        raise ValueError(f"need N >= M, got N={n}, M={m}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"Q must be in [0,1], got {q}")


def log_sigma(n: int, m: int, q: float) -> float:
    """log of Eq. 9's σ: the number of permutations consistent with a
    partial-local exchange of fraction ``q`` between ``m`` shards of an
    ``n``-sample dataset."""
    _validate(n, m, q)
    shard = n / m  # N/M
    rest = (m - 1) * n / m  # (M-1) N/M
    k = q * n / m  # Q N/M
    return (
        _log_factorial(shard)
        + _log_falling_factorial(rest, k)
        + _log_falling_factorial(shard, k)
        + _log_factorial(rest)
    )


def log_permutations(n: int) -> float:
    """log(N!) — the size of the full permutation space."""
    return _log_factorial(n)


def is_overcounted(n: int, m: int, q: float) -> bool:
    """True when Eq. 9's σ exceeds N! for this configuration.

    The paper's σ is a loose product-form count and can overcount the
    reachable permutations (verifiably so in exact arithmetic: e.g.
    n=8, m=2, q=0.5 gives σ = 82944 > 8! = 40320).  In the paper's actual
    regime — many workers, Q well below 1, N in the millions — σ ≪ N! and
    ε ≈ 1, which is the conclusion the paper draws; the overcount only
    bites at small M / large Q.  We implement the formula verbatim, expose
    this flag, and clamp ε to [0, 1].
    """
    return log_sigma(n, m, q) > log_permutations(n)


def shuffling_error(n: int, m: int, q: float) -> float:
    """epsilon(A, h, N) = 1 - sigma/N!  (Eq. 11), computed stably in
    log-space and clamped to [0, 1] (see :func:`is_overcounted`).

    For practical sizes (the paper's ImageNet example) this is ~1 because
    the reachable-permutation count is astronomically smaller than N!.
    """
    ratio_log = log_sigma(n, m, q) - log_permutations(n)
    if ratio_log > 0:
        return 0.0
    return float(-math.expm1(ratio_log))


def shuffling_error_monte_carlo(
    n: int,
    m: int,
    q: float,
    *,
    trials: int = 20000,
    seed: int = 0,
) -> float:
    """Ground-truth total-variation shuffling error for *tiny* n by direct
    simulation of one PLS epoch (Eq. 7 with the empirical distribution).

    Simulates: local shuffle of each shard, then ``k = round(q*n/m)``
    balanced exchange rounds with shared destination permutations, then a
    final local shuffle.  The induced distribution over arrangements of the
    n samples is compared against uniform over all n! permutations.
    Feasible for n! small (n <= 7 or so).
    """
    _validate(n, m, q)
    if n % m != 0:
        raise ValueError("monte-carlo estimator requires M | N")
    nfact = math.factorial(n)
    if nfact > 50_000:
        raise ValueError(f"n! = {nfact} too large for enumeration; use n <= 8")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    shard = n // m
    k = round(q * shard)
    rng = np.random.default_rng(seed)
    from itertools import permutations as iter_perms

    index_of = {p: i for i, p in enumerate(iter_perms(range(n)))}
    counts = np.zeros(nfact, dtype=np.int64)
    for _ in range(trials):
        blocks = [list(range(r * shard, (r + 1) * shard)) for r in range(m)]
        for block in blocks:
            rng.shuffle(block)
        # Balanced exchange: k rounds of shared destination permutations.
        for i in range(k):
            perm = rng.permutation(m)
            outgoing = [blocks[r][i] for r in range(m)]
            for r in range(m):
                blocks[int(perm[r])][i] = outgoing[r]
        for block in blocks:
            rng.shuffle(block)
        arrangement = tuple(x for block in blocks for x in block)
        counts[index_of[arrangement]] += 1
    emp = counts / trials
    uniform = 1.0 / nfact
    return float(0.5 * np.abs(emp - uniform).sum())


def dominance_threshold(n: int, m: int, b: int) -> float:
    """The §IV-B condition: the shuffling error must satisfy
    ``epsilon <= sqrt(b*M/N)`` for the error term not to dominate the
    convergence-rate bound (Eq. 6)."""
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    if m < 1 or n < 1:
        raise ValueError("n and m must be positive")
    return math.sqrt(b * m / n)


@dataclass(frozen=True)
class ShufflingErrorPoint:
    """One row of the §IV-B analysis table."""

    n: int
    m: int
    q: float
    b: int
    epsilon: float
    threshold: float
    dominates: bool


def error_table(
    n: int,
    workers: list[int],
    q: float,
    b: int,
) -> list[ShufflingErrorPoint]:
    """Evaluate epsilon and the dominance condition across worker counts —
    the paper's ImageNet example: N=1.2e6, 4 <= M <= 100,000."""
    rows = []
    for m in workers:
        eps = shuffling_error(n, m, q)
        thr = dominance_threshold(n, m, b)
        rows.append(
            ShufflingErrorPoint(
                n=n, m=m, q=q, b=b, epsilon=eps, threshold=thr,
                dominates=eps > thr,
            )
        )
    return rows


def sigma_exact_tiny(n: int, m: int, q: float) -> int:
    """Exact integer σ for tiny n (validation of the log-space path).

    Only usable when all the factorial arguments are integers; raises
    otherwise.
    """
    _validate(n, m, q)
    shard, rest, k = n // m, (m - 1) * n // m, round(q * n / m)
    if shard * m != n:
        raise ValueError("exact sigma requires M | N")
    perm = math.factorial
    falling = lambda a, b: perm(a) // perm(a - b)  # noqa: E731
    return perm(shard) * falling(rest, k) * falling(shard, k) * perm(rest)
