"""Counters, gauges and histograms for runtime totals.

The flight recorder answers *when*; the registry answers *how much in
total* — requests served per tenant, queue depth, latency distributions —
without the cost of storing one event per observation.  Its users are the
serve tier (:mod:`repro.serve`) and, through :class:`Reservoir`, the
telemetry aggregator.  Instruments are created-on-first-use (Prometheus
style) so instrumented code never has to declare them up front::

    reg = MetricsRegistry()
    reg.counter("serve.requests").inc()
    reg.gauge("serve.queue_depth").set(3)
    reg.histogram("serve.latency_s").observe(0.002)
    reg.snapshot()  # plain-dict view for export / assertions

All instruments are thread-safe: ranks are threads and a registry may be
shared across them (e.g. one registry per rank but a shared one in tests).
``snapshot()`` holds each instrument's lock while reading it, so a value
observed mid-``inc``/mid-``observe`` can never tear (a histogram whose
``count`` was bumped but whose ``sum`` was not yet).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

from repro.utils.rng import hash_unit

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "quantile_key",
]


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

        The public digest-read API: telemetry exporters and per-tenant
        latency reports ask for ``quantiles([0.5, 0.95, 0.99])`` instead
        of poking the reservoir per quantile (one sort instead of one per
        point).  Keys follow the conventional percentile spelling:
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


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        with self._lock:
            return self._value


class Gauge:
    """Last-written value (e.g. the current epoch's validation accuracy)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = math.nan
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (NaN gauges start from 0)."""
        with self._lock:
            base = 0.0 if math.isnan(self._value) else self._value
            self._value = base + delta

    @property
    def value(self) -> float:
        """Current value (NaN when never set)."""
        with self._lock:
            return self._value


#: Retained-sample size of every histogram's quantile reservoir.  256 keeps
#: p99 meaningful (~2-3 samples above it) at a fixed ~2 KiB per histogram.
HISTOGRAM_RESERVOIR_SIZE = 256


class Histogram:
    """Streaming summary of observations with bounded memory.

    Aggregates (count / sum / min / max / mean) are exact; quantiles
    (p50 / p95 / p99) come from a fixed-size :class:`Reservoir`, so memory
    stays O(1) no matter how many observations arrive — a histogram fed
    once per message by an always-on telemetry path cannot grow without
    bound.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock", "_reservoir")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()
        self._reservoir = Reservoir(name, HISTOGRAM_RESERVOIR_SIZE)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._reservoir.add(value)

    @property
    def mean(self) -> float:
        """Mean of the observations (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def summary(self) -> dict[str, float]:
        """Plain-dict aggregate view (keys stable; quantiles estimated
        from the bounded reservoir)."""
        with self._lock:
            return self._summary_locked()

    def quantiles(self, qs: Iterable[float]) -> dict[str, float]:
        """Reservoir quantiles keyed ``p50``-style (``quantiles([0.5,
        0.95, 0.99])``) — the same public digest API as
        :meth:`Reservoir.quantiles`, read under the histogram's lock."""
        with self._lock:
            return self._reservoir.quantiles(qs)

    def _summary_locked(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": math.nan, "max": math.nan,
                    "mean": math.nan, "p50": math.nan, "p95": math.nan,
                    "p99": math.nan}
        out = {
            "count": self.count, "sum": self.total, "min": self.min,
            "max": self.max, "mean": self.total / self.count,
        }
        out.update(self._reservoir.quantiles((0.50, 0.95, 0.99)))
        return out


class MetricsRegistry:
    """Name -> instrument map with create-on-first-use accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created on first use)."""
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(name))
        return h

    def snapshot(self) -> dict[str, Any]:
        """All instruments as plain values, sorted by name::

            {"counters": {...}, "gauges": {...}, "histograms": {...}}

        Each instrument is read under its own lock, so a concurrent
        ``inc``/``observe`` is either fully visible or not at all — never a
        half-applied update (e.g. a histogram count without its sum).
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, c in counters:
            with c._lock:
                out["counters"][name] = c._value
        for name, g in gauges:
            with g._lock:
                out["gauges"][name] = g._value
        for name, h in histograms:
            with h._lock:
                out["histograms"][name] = h._summary_locked()
        return out
