"""Size-classed pool of reusable exchange buffers.

The per-epoch exchange allocates the same handful of buffer sizes over and
over: one packed frame per (window, peer), one batch array per training
iteration.  Allocating them fresh each time is pure allocator churn — RINAS
(Zhong et al., 2023) measures shuffled-ingest throughput as dominated by
exactly this kind of serialization/allocation overhead, not by the shuffle
itself.  :class:`BufferPool` keeps freed buffers on power-of-two free lists
so steady-state exchange rounds run allocation-free.

Ownership protocol (enforced by accounting, relied on for zero-copy):

* :meth:`~BufferPool.acquire` hands out a :class:`PoolBuffer` — the caller
  owns it exclusively.
* :meth:`~BufferPool.release` returns it for reuse.  Only release a buffer
  no live view can reach: the pool WILL hand the same bytes to the next
  acquirer of that size class.
* :meth:`~BufferPool.adopt` transfers ownership *out* of the pool — used
  when a zero-copy consumer (the serve tier's storage installing received
  sample views, or an aborted exchange whose peer may still read the
  frame) keeps the bytes alive indefinitely.  Adopted buffers are never
  reused; Python's GC frees them when the last view dies.

``in_use()`` counts acquired-but-neither-released-nor-adopted buffers, so
a leak (a code path that drops a buffer on the floor) shows up as a
non-zero balance the tests assert against.
"""

from __future__ import annotations

import threading

__all__ = ["BufferPool", "PoolBuffer"]


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two capacity >= nbytes (minimum 256 B)."""
    cls = 256
    while cls < nbytes:
        cls <<= 1
    return cls


class PoolBuffer:
    """One pooled allocation: a ``bytearray`` plus its active length.

    ``view`` exposes exactly the first ``nbytes`` bytes (the requested
    length, not the size-class capacity) as a writable memoryview; fill it,
    then freeze the contents behind ``readonly()`` before letting the
    buffer escape to other threads.
    """

    __slots__ = ("raw", "nbytes", "size_class", "pool", "state")

    def __init__(self, raw: bytearray, nbytes: int, size_class: int, pool) -> None:
        self.raw = raw
        self.nbytes = nbytes
        self.size_class = size_class
        self.pool = pool
        self.state = "in_use"  # in_use | released | adopted

    @property
    def view(self) -> memoryview:
        """Writable view of the active region (the requested length)."""
        return memoryview(self.raw)[: self.nbytes]

    def readonly(self) -> memoryview:
        """Read-only view of the active region — safe to share across ranks."""
        return memoryview(self.raw)[: self.nbytes].toreadonly()

    def release(self) -> None:
        """Return the buffer to its pool (shorthand for ``pool.release``)."""
        self.pool.release(self)

    def adopt(self) -> None:
        """Detach the buffer from its pool (shorthand for ``pool.adopt``)."""
        self.pool.adopt(self)


class BufferPool:
    """Thread-safe pool of size-classed ``bytearray`` buffers.

    Parameters
    ----------
    max_buffers_per_class:
        Free-list bound per size class; releases beyond it drop the buffer
        to the GC instead of growing the pool without limit.
    name:
        Label used in stats (several pools can coexist: one per world for
        the exchange, one per loader for batch buffers).
    """

    def __init__(self, *, max_buffers_per_class: int = 32, name: str = "pool") -> None:
        if max_buffers_per_class < 1:
            raise ValueError(
                f"max_buffers_per_class must be >= 1, got {max_buffers_per_class}"
            )
        self.name = name
        self.max_buffers_per_class = max_buffers_per_class
        self._lock = threading.Lock()
        self._free: dict[int, list[bytearray]] = {}
        # Accounting (guarded by _lock; all monotone except the balance).
        self.acquires = 0
        self.releases = 0
        self.adopts = 0
        self.hits = 0            # acquires served from a free list
        self.misses = 0          # acquires that had to allocate
        self.bytes_served = 0    # sum of requested nbytes over acquires
        self.bytes_allocated = 0 # sum of size-class bytes actually allocated
        self.high_water = 0      # max simultaneous in-use buffers

    # ------------------------------------------------------------- lifecycle
    def acquire(self, nbytes: int) -> PoolBuffer:
        """Hand out a buffer with at least ``nbytes`` of capacity.

        The returned :class:`PoolBuffer` exposes exactly ``nbytes`` through
        ``view``/``readonly``; contents of a reused buffer are stale, not
        zeroed (callers overwrite the full active region).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        cls = _size_class(nbytes)
        with self._lock:
            free = self._free.get(cls)
            if free:
                raw = free.pop()
                self.hits += 1
            else:
                raw = bytearray(cls)
                self.misses += 1
                self.bytes_allocated += cls
            self.acquires += 1
            self.bytes_served += nbytes
            in_use = self.acquires - self.releases - self.adopts
            if in_use > self.high_water:
                self.high_water = in_use
        return PoolBuffer(raw, nbytes, cls, self)

    def release(self, buf: PoolBuffer) -> None:
        """Return ``buf`` for reuse.  The caller must hold the only live
        reference to its bytes — the pool will recycle them immediately."""
        self._retire(buf, "released", keep=True)

    def adopt(self, buf: PoolBuffer) -> None:
        """Transfer ``buf`` out of the pool: long-lived views (e.g. samples
        installed zero-copy into a storage area) keep the bytes alive and
        the pool must never hand them out again.  Accounting-only — the GC
        frees the bytes when the last view dies."""
        self._retire(buf, "adopted", keep=False)

    def adopt_if_in_use(self, buf: PoolBuffer) -> bool:
        """Idempotent adopt for teardown paths (exchange abort), where the
        sending and receiving rank of a zero-copy transfer may both try to
        retire the same buffer; returns whether this call retired it."""
        return self._retire(buf, "adopted", keep=False, strict=False)

    def _retire(
        self, buf: PoolBuffer, new_state: str, *, keep: bool, strict: bool = True
    ) -> bool:
        if buf.pool is not self:
            raise ValueError(f"buffer belongs to pool {buf.pool.name!r}, not {self.name!r}")
        with self._lock:
            if buf.state != "in_use":
                if strict:
                    raise RuntimeError(
                        f"buffer already {buf.state}; double release/adopt is "
                        "a use-after-free in waiting"
                    )
                return False
            buf.state = new_state
            if keep:
                self.releases += 1
                free = self._free.setdefault(buf.size_class, [])
                if len(free) < self.max_buffers_per_class:
                    free.append(buf.raw)
            else:
                self.adopts += 1
        return True

    # ------------------------------------------------------------ accounting
    def in_use(self) -> int:
        """Buffers acquired and neither released nor adopted — the leak
        balance the exchange tests assert is zero after each epoch."""
        with self._lock:
            return self.acquires - self.releases - self.adopts

    def free_buffers(self) -> int:
        """Buffers currently parked on free lists."""
        with self._lock:
            return sum(len(v) for v in self._free.values())

    def assert_balanced(self) -> None:
        """Raise unless every acquired buffer was released or adopted."""
        leaked = self.in_use()
        if leaked:
            raise RuntimeError(
                f"buffer pool {self.name!r} leaked {leaked} buffer(s): "
                f"{self.acquires} acquired, {self.releases} released, "
                f"{self.adopts} adopted"
            )

    def stats(self) -> dict:
        """Plain-dict accounting snapshot (feeds BENCH_exchange.json and
        the ``pool.*`` metrics gauges the scheduler emits when traced)."""
        with self._lock:
            return {
                "name": self.name,
                "acquires": self.acquires,
                "releases": self.releases,
                "adopts": self.adopts,
                "hits": self.hits,
                "misses": self.misses,
                "in_use": self.acquires - self.releases - self.adopts,
                "free_buffers": sum(len(v) for v in self._free.values()),
                "bytes_served": self.bytes_served,
                "bytes_allocated": self.bytes_allocated,
                "high_water": self.high_water,
            }

    def clear(self) -> None:
        """Drop every free-listed buffer (in-use/adopted ones unaffected)."""
        with self._lock:
            self._free.clear()
