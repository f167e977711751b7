"""Size-classed pool of reusable exchange buffers.

The per-epoch exchange allocates the same handful of buffer sizes over and
over: one packed frame per (window, peer).  Allocating them fresh each time
is pure allocator churn — RINAS (Zhong et al., 2023) measures
shuffled-ingest throughput as dominated by exactly this kind of
serialization/allocation overhead, not by the shuffle itself.
:class:`BufferPool` keeps freed buffers on power-of-two free lists so
steady-state exchange windows run allocation-free.

There is one pool class.  Size classes, free lists, the ownership state
machine and the accounting (the "ledger") live here; where the
bytes come from, and when they may be given back, is the *allocator*'s
business:

* :class:`HeapAllocator` (the default — the ``threads`` world): one
  ``bytearray`` per buffer.  Whatever the pool lets go of — a
  release beyond the free-list bound, an adopted buffer — is the GC's.
* :class:`~repro.mpi.shm_pool.SegmentAllocator` (the ``procs`` world): one
  named ``/dev/shm`` segment per buffer, parked without bound on release
  and unlinked only by ``shutdown()``.

Ownership protocol (enforced by accounting, relied on for zero-copy):

* :meth:`~BufferPool.acquire` hands out a :class:`PoolBuffer` — the caller
  owns it exclusively.
* :meth:`~BufferPool.release` returns it for reuse.  Only release a buffer
  no live view can reach: the pool WILL hand the same bytes to the next
  acquirer of that size class.
* :meth:`~BufferPool.adopt_if_in_use` transfers ownership *out* of the
  pool — used when an aborted exchange's peer may still read the frame,
  so the bytes stay alive indefinitely.  Adopted buffers are never
  reused.

``in_use()`` counts acquired-but-neither-released-nor-adopted buffers, so
a leak (a code path that drops a buffer on the floor) shows up as a
non-zero balance the tests assert against.
"""

from __future__ import annotations

import itertools
import threading

__all__ = ["BufferPool", "FrameCache", "HeapAllocator", "MIN_SIZE_CLASS", "PoolBuffer"]

#: Capacity of the smallest size class.
MIN_SIZE_CLASS = 256


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two capacity >= nbytes (at least MIN_SIZE_CLASS)."""
    cls = MIN_SIZE_CLASS
    while cls < nbytes:
        cls <<= 1
    return cls


class PoolBuffer:
    """One pooled allocation: its bytes plus the active length.

    ``view`` exposes exactly the first ``nbytes`` bytes (the requested
    length, not the size-class capacity) as a writable memoryview; fill it,
    then freeze the contents behind ``readonly()`` before letting the
    buffer escape to other threads.  ``buf_id`` is the buffer's identity in
    its pool (issued once); ``segment_name`` is the ``/dev/shm`` name another
    process maps the same bytes by (``None`` for heap bytes).
    """

    __slots__ = (
        "raw", "nbytes", "size_class", "pool", "state", "buf_id", "segment_name"
    )

    def __init__(
        self, raw, nbytes: int, size_class: int, pool, buf_id: int,
        segment_name: str | None = None,
    ) -> None:
        self.raw = raw
        self.nbytes = nbytes
        self.size_class = size_class
        self.pool = pool
        self.state = "in_use"  # in_use | released | adopted
        self.buf_id = buf_id
        self.segment_name = segment_name

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


class HeapAllocator:
    """Bytes from the interpreter heap: one ``bytearray`` per buffer, given
    back by dropping the reference (the GC frees it)."""

    #: Free-list bound per size class: a release beyond it hands the bytes
    #: back instead of growing the pool without limit (``None``: no bound).
    #: The overlapped exchange keeps a few windows of frames per rank, far
    #: below it; it can still bind when more than 32 frames of one class are
    #: alive at once — a blocking ``communicate()`` of a long epoch, or many
    #: ranks' frames returned at the same commit.
    park_limit: int | None = 32

    def allocate(self, size: int) -> tuple[bytearray, None]:
        """A block of ``size`` fresh bytes: ``(bytes, segment name)``."""
        return bytearray(size), None

    def stats(self) -> dict:
        """Allocator-specific ``stats()`` keys (none)."""
        return {}

    def shutdown(self) -> None:
        """Nothing outlives the process on the heap."""


class FrameCache:
    """The buffers one owner holds on to between uses: ``acquire`` hands a
    held buffer that fits out again — with the new active length, without
    visiting the pool — and falls back to ``pool.acquire``; ``put`` takes
    back a buffer nobody else can still read.  Whatever is held stays
    ``in_use`` in the pool's ledger until :meth:`release_all`.  Not
    thread-safe: one exchange scheduler, one cache.

    The owner's buffers never outnumber the most it had out at once: a held
    buffer of a larger class serves a smaller frame, and one too small for
    the frame goes back to the pool before a new one is taken."""

    def __init__(self, pool) -> None:
        self.pool = pool
        self._held: dict[int, list[PoolBuffer]] = {}

    def acquire(self, nbytes: int) -> PoolBuffer:
        """The smallest held buffer that fits, else one from the pool."""
        cls = _size_class(nbytes)
        fits = [c for c, held in self._held.items() if held and c >= cls]
        if fits:
            buf = self._held[min(fits)].pop()
            buf.nbytes = nbytes
            return buf
        spare = next((held for held in self._held.values() if held), None)
        if spare:
            spare.pop().release()
        return self.pool.acquire(nbytes)

    def put(self, buf: PoolBuffer) -> None:
        """Hold ``buf`` (no reader left) for a later :meth:`acquire`."""
        self._held.setdefault(buf.size_class, []).append(buf)

    def release_all(self) -> None:
        """Return every held buffer to the pool."""
        for held in self._held.values():
            for buf in held:
                buf.release()
        self._held = {}


class BufferPool:
    """Thread-safe pool of size-classed buffers over one allocator.

    Parameters
    ----------
    allocator:
        Where the bytes come from (default: a :class:`HeapAllocator`).
    name:
        Label used in stats (several pools can coexist; the exchange
        uses one per world).
    """

    def __init__(self, allocator=None, *, name: str = "pool") -> None:
        self.name = name
        self._allocator = HeapAllocator() if allocator is None else allocator
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._free: dict[int, list[tuple]] = {}
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
                raw, segment_name = free.pop()
                self.hits += 1
            else:
                raw, segment_name = self._allocator.allocate(cls)
                self.misses += 1
                self.bytes_allocated += cls
            self.acquires += 1
            self.bytes_served += nbytes
            in_use = self.acquires - self.releases - self.adopts
            if in_use > self.high_water:
                self.high_water = in_use
            return PoolBuffer(raw, nbytes, cls, self, next(self._ids), segment_name)

    def release(self, buf: PoolBuffer) -> None:
        """Return ``buf`` for reuse.  The caller must hold the only live
        reference to its bytes — the pool will recycle them immediately."""
        self._retire(buf, "released")

    def adopt_if_in_use(self, buf: PoolBuffer) -> bool:
        """Transfer ``buf`` out of the pool, idempotently: on the teardown
        path (exchange abort) the sending and receiving rank of a zero-copy
        transfer may both try to retire the same buffer; returns whether
        this call retired it.  Heap bytes are freed by the GC when the last
        view dies; a segment stays mapped until :meth:`shutdown`."""
        return self._retire(buf, "adopted", strict=False)

    def _retire(self, buf: PoolBuffer, new_state: str, *, strict: bool = True) -> bool:
        if buf.pool is not self:
            raise ValueError(f"buffer belongs to pool {buf.pool.name!r}, not {self.name!r}")
        with self._lock:
            if buf.state != "in_use":
                if strict:
                    raise RuntimeError(
                        f"buffer #{buf.buf_id} already {buf.state}; double "
                        "release/adopt is a use-after-free in waiting"
                    )
                return False
            buf.state = new_state
            if new_state == "released":
                self.releases += 1
                block = (buf.raw, buf.segment_name)
                free = self._free.setdefault(buf.size_class, [])
                limit = self._allocator.park_limit
                if limit is None or len(free) < limit:
                    free.append(block)
                # Else the block is dropped: only the heap allocator has a
                # bound, and the GC frees its bytes.
            else:
                self.adopts += 1
        return True

    # ------------------------------------------------------------ accounting
    def in_use(self) -> int:
        """Buffers acquired and neither released nor adopted — the leak
        balance the exchange tests assert is zero after each epoch."""
        with self._lock:
            return self.acquires - self.releases - self.adopts

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
        """Plain-dict accounting snapshot (what the exchange tests gate the
        hit rate and high water on, and the ``pool.*`` metrics gauges the
        scheduler emits when traced), plus the allocator's own keys
        (``segments`` for shared memory)."""
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
                **self._allocator.stats(),
            }

    def shutdown(self) -> None:
        """End of the pool's life: drop the free lists and let the
        allocator reclaim everything it ever handed out — for shared memory
        that unlinks every segment, in use or not, and a later ``acquire``
        that has to allocate raises.  Idempotent."""
        with self._lock:
            self._free.clear()
            self._allocator.shutdown()
