"""Dataset partitioning across workers (Figure 2 of the paper).

"Data partitioning is represented as a shuffle of the dataset, where
different permutations represent different ways to partition the data.  The
worker to whom a sample belongs is determined by the order in which it
appears in a permutation."

Schemes
-------
``random``
    A seeded global permutation chopped into contiguous blocks — balanced
    and class-diverse shards; the initial distribution the paper assumes.
``contiguous``
    Natural order chopped into blocks.  For datasets stored grouped by
    class (ImageFolder layout!) this produces class-skewed shards — the
    regime where local shuffling degrades.
``strided``
    Rank *r* takes indices ``r, r+M, r+2M, ...`` of the natural order.
``class_sorted``
    Sort by label, then contiguous blocks: maximal class skew per shard,
    the worst case for local shuffling.
"""

from __future__ import annotations

import numpy as np

__all__ = ["partition_indices", "partition_sizes", "PARTITION_SCHEMES"]

PARTITION_SCHEMES = ("random", "contiguous", "strided", "class_sorted")


def partition_sizes(n: int, m: int) -> np.ndarray:
    """Balanced shard sizes: ``n`` samples over ``m`` workers, remainders to
    the lowest ranks (sizes differ by at most one)."""
    if m < 1:
        raise ValueError(f"number of workers must be >= 1, got {m}")
    if n < m:
        raise ValueError(f"cannot give each of {m} workers a sample from {n}")
    sizes = np.full(m, n // m, dtype=np.int64)
    sizes[: n % m] += 1
    return sizes


def partition_indices(
    n: int,
    m: int,
    *,
    scheme: str = "random",
    labels: np.ndarray | None = None,
    seed: int = 0,
) -> list[np.ndarray]:
    """Split ``range(n)`` into ``m`` shards; returns one index array per rank.

    ``labels`` is required for the label-aware ``class_sorted``.  Every
    scheme yields balanced shard sizes (±1) and a disjoint, exhaustive
    cover of ``range(n)``.
    """
    if scheme not in PARTITION_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {PARTITION_SCHEMES}")
    sizes = partition_sizes(n, m)
    bounds = np.concatenate([[0], np.cumsum(sizes)])

    if scheme == "strided":
        return [np.arange(r, n, m, dtype=np.int64) for r in range(m)]

    if scheme == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A47]))
        order = rng.permutation(n)
    elif scheme == "contiguous":
        order = np.arange(n)
    else:  # class_sorted
        if labels is None:
            raise ValueError("class_sorted partitioning requires labels")
        if len(labels) != n:
            raise ValueError(f"labels length {len(labels)} != n {n}")
        order = np.argsort(np.asarray(labels), kind="stable")

    return [order[bounds[r] : bounds[r + 1]].astype(np.int64) for r in range(m)]
