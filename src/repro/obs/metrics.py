"""A bounded quantile digest for runtime totals.

The flight recorder answers *when*; a :class:`Reservoir` answers *how is
this quantity distributed* — step time, exchange wait — without the cost
of storing one value per observation.  Its user is the telemetry
aggregator (:class:`~repro.obs.telemetry.TelemetryAggregator`), which
keeps one per metric and reads it through :meth:`Reservoir.quantiles`.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.utils.rng import hash_unit

__all__ = ["Reservoir", "quantile_key"]


class Reservoir:
    """Fixed-size uniform sample of an unbounded stream (Algorithm R).

    The admission and replacement decisions use :func:`hash_unit` keyed on
    ``(key, n)`` rather than a drawn RNG stream, so the retained sample is a
    pure function of the observation sequence — immune to thread
    interleaving, reproducible run-to-run, and SPMD-clean (no raw RNG).
    Quantiles computed over the reservoir are unbiased estimates of the
    stream's quantiles; for streams shorter than ``capacity`` they are
    exact.
    """

    __slots__ = ("key", "capacity", "n", "_values")

    def __init__(self, key: str, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.key = key
        self.capacity = capacity
        self.n = 0          # observations offered (not retained)
        self._values: list[float] = []

    def add(self, value: float) -> None:
        """Offer one observation (retained with probability capacity/n)."""
        self.n += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        u = hash_unit(self.key, self.n)
        # Keep with probability capacity/n; the second hash picks the slot
        # to evict uniformly (independent of the admission draw).
        if u * self.n < self.capacity:
            slot = int(hash_unit(self.key, self.n, "slot") * self.capacity)
            self._values[slot] = float(value)

    def values(self) -> list[float]:
        """Copy of the retained sample (unordered)."""
        return list(self._values)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the retained sample (NaN when empty)."""
        if not self._values:
            return math.nan
        ordered = sorted(self._values)
        idx = int(round(q * (len(ordered) - 1)))
        return ordered[min(len(ordered) - 1, max(0, idx))]

    def quantiles(self, qs: Iterable[float]) -> dict[str, float]:
        """Several quantiles in one sorted pass, keyed ``p50``-style.

        The public digest-read API: telemetry exporters ask for
        ``quantiles([0.5, 0.95, 0.99])`` instead of poking the reservoir
        per quantile (one sort instead of one per point).  Keys follow
        the conventional percentile spelling:
        ``0.5 -> "p50"``, ``0.99 -> "p99"``, ``0.999 -> "p99.9"``.
        """
        qs = list(qs)
        if not self._values:
            return {quantile_key(q): math.nan for q in qs}
        ordered = sorted(self._values)
        out = {}
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {q}")
            idx = int(round(q * (len(ordered) - 1)))
            out[quantile_key(q)] = ordered[min(len(ordered) - 1, max(0, idx))]
        return out

    def __len__(self) -> int:
        return len(self._values)


def quantile_key(q: float) -> str:
    """Conventional percentile label for a quantile: ``0.99 -> "p99"``."""
    pct = q * 100.0
    if math.isclose(pct, round(pct)):
        return f"p{int(round(pct))}"
    return f"p{pct:g}"
