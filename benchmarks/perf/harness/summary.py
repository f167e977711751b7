"""Small statistics the report needs: medians, the tail-percentile rule,
failure accounting and content digests."""

from __future__ import annotations

import hashlib
import statistics
from typing import Iterable, Sequence

__all__ = [
    "mean",
    "median",
    "tail_percentile",
    "count_ops",
    "digest",
]

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for no values."""
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def tail_percentile(sorted_values: Sequence[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``.  With fewer than forty samples no rung
    qualifies (the 75th needs ten of forty above it) and the median is
    returned as ``(50.0, median)``, so a caller always has a number and the
    percentile says what it is.
    """
    n = len(sorted_values)
    if not n:
        return 50.0, 0.0
    best = None
    for pct in PERCENTILE_LADDER:
        beyond = n - int(n * pct / 100.0 + 0.999999)
        if beyond >= 10:
            best = pct
    if best is None:
        return 50.0, statistics.median(sorted_values)
    index = min(n - 1, int(n * best / 100.0 + 0.999999) - 1)
    return best, sorted_values[index]


def count_ops(
    passes: Iterable[dict], *, checks_ok: bool
) -> tuple[int, int]:
    """``(attempted, failed)`` operations over ``passes``.

    An operation is one training step or one planned exchange round, per
    rank.  Failed are the steps a pass did not complete and the rounds it
    planned but did not commit; if any correctness check failed, every
    operation of the workload counts as failed — a fast wrong answer is not
    a result.
    """
    attempted = failed = 0
    for p in passes:
        ops = p["ops"]
        attempted += ops["steps_planned"] + ops["rounds_planned"]
        failed += (ops["steps_planned"] - ops["steps_done"]) + (
            ops["rounds_planned"] - ops["rounds_committed"]
        )
    if not checks_ok:
        failed = attempted
    return attempted, failed


def digest(parts: Iterable[str]) -> str:
    """Short stable digest of a sequence of strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
