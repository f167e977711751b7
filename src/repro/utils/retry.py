"""Capped exponential backoff with deterministic jitter.

Transient faults — a storage read returning ``OSError``, a parallel file
system timing out, a torn ``.npy`` — are recovered by re-trying with
exponentially growing pauses.  The jitter that de-synchronises retrying
ranks is *not* drawn from an RNG stream: fault recovery must be a pure
function of what failed (so two runs with the same seed retry identically,
regardless of thread interleaving), so the jitter is a stable hash of the
caller-supplied key and the attempt number (see
:func:`repro.utils.rng.hash_unit`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, TypeVar

from .rng import hash_unit

__all__ = ["Backoff", "Retrier", "default_retrier"]

T = TypeVar("T")


class Backoff:
    """Delay schedule: ``base * factor**attempt`` capped at ``cap_s``.

    ``jitter`` shaves up to that fraction off each delay, deterministically
    per ``(key, attempt)``: delay ``raw`` becomes a value in
    ``[raw * (1 - jitter), raw)``.
    """

    def __init__(
        self,
        base_s: float = 0.005,
        *,
        factor: float = 2.0,
        cap_s: float = 0.25,
        jitter: float = 0.5,
    ) -> None:
        if base_s < 0 or cap_s < 0:
            raise ValueError("delays must be non-negative")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0,1), got {jitter}")
        self.base_s = base_s
        self.factor = factor
        self.cap_s = cap_s
        self.jitter = jitter

    def delay(self, attempt: int, key: object = "") -> float:
        """Seconds to sleep before re-attempt number ``attempt`` (0-based)."""
        raw = min(self.cap_s, self.base_s * self.factor ** attempt)
        if not self.jitter:
            return raw
        u = hash_unit("backoff", key, attempt)
        return raw * (1.0 - self.jitter * u)


class Retrier:
    """Retry policy plus thread-safe counters, shareable across readers.

    ``call(fn, key=...)`` invokes ``fn(attempt)`` up to ``attempts`` times,
    sleeping per the backoff schedule between failures.  Exceptions outside
    ``retry_on`` propagate immediately; the last in-budget failure is
    re-raised after ``giveups`` is counted.
    """

    def __init__(
        self,
        *,
        attempts: int = 6,
        backoff: Backoff | None = None,
        retry_on: tuple[type[BaseException], ...] = (OSError, ValueError),
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.attempts = attempts
        self.backoff = backoff if backoff is not None else Backoff()
        self.retry_on = retry_on
        self._sleep = sleep
        self._lock = threading.Lock()
        #: Failed attempts that were retried / given up on (across threads).
        self.retries = 0
        self.giveups = 0

    def call(self, fn: Callable[[int], T], *, key: object = "") -> T:
        """Run ``fn(attempt)`` with retries; returns its first success."""
        for attempt in range(self.attempts):
            try:
                return fn(attempt)
            except self.retry_on:
                with self._lock:
                    if attempt + 1 >= self.attempts:
                        self.giveups += 1
                    else:
                        self.retries += 1
                if attempt + 1 >= self.attempts:
                    raise
                self._sleep(self.backoff.delay(attempt, key=key))
        raise AssertionError("unreachable: attempts >= 1")

    def stats(self) -> dict:
        """Snapshot of the retry counters."""
        with self._lock:
            return {"retries": self.retries, "giveups": self.giveups}


_default = Retrier()


def default_retrier() -> Retrier:
    """The process-wide shared retry policy for storage reads.

    Shared so that retry counters aggregate across every
    :class:`~repro.data.folder.FolderDataset` in the process — the number
    the chaos CLI reports as recovered read faults.
    """
    return _default
