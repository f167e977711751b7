"""Cross-process variant of the size-classed exchange buffer pool.

The ``procs`` backend moves ranks into real OS processes, so the zero-copy
discipline of :class:`~repro.mpi.pool.BufferPool` needs bytes both sides can
map: :class:`SharedSegmentPool` allocates ``multiprocessing.shared_memory``
segments on the same power-of-two size classes and hands out
:class:`ShmPoolBuffer` handles that *subclass* :class:`~repro.mpi.pool.PoolBuffer`,
so every ``isinstance`` check on the codec/scheduler ownership paths holds
unchanged.

Ownership protocol (identical to the in-process pool, with one twist):

* the pool lives in the **parent** (world-host) process and is the single
  authority for acquire/release/adopt accounting — rank processes operate on
  it by ``buf_id`` over the backend RPC channel, so double-release detection
  and the idempotent teardown adopt (``adopt_if_in_use``) stay exact even
  when sender and receiver race across process boundaries;
* a segment travels on the wire as a *handle envelope* (name + id + length),
  never as payload bytes — the receiving process attaches the same segment
  and reads the bytes in place;
* a released segment **always** goes back on its size class's free list:
  rank processes keep every segment they ever attached mapped (two fds
  each), so unlinking one behind their backs would only orphan those
  mappings.  The exchange's frames in flight bound the high-water mark, so
  the free lists — and every rank's mappings — stop growing after the
  first epoch;
* segments are unlinked only by :meth:`~SharedSegmentPool.clear` and
  :meth:`~SharedSegmentPool.shutdown`; the launcher invokes the latter on
  every exit path (normal return, rank kill, exception, deadline) and it is
  additionally registered with :mod:`atexit` as a backstop, so repeated
  runs never leak ``/dev/shm`` entries.

Segment names carry the :data:`SEGMENT_PREFIX` so tests (and operators) can
assert a clean ``/dev/shm`` namespace between runs.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
import threading
from multiprocessing import shared_memory

from .pool import PoolBuffer, _size_class

__all__ = [
    "SEGMENT_PREFIX",
    "ShmPoolBuffer",
    "SharedSegmentPool",
    "live_segments",
    "quiet_close",
]

#: Prefix of every shared-memory segment the pool creates; the leak-check
#: fixture globs ``/dev/shm/<SEGMENT_PREFIX>*`` to assert nothing survived.
SEGMENT_PREFIX = "repro-shm-"


def live_segments() -> list[str]:
    """Names of pool-created segments currently present in ``/dev/shm``.

    Linux-specific by design (the CI runners and the dev container are
    Linux); on platforms without ``/dev/shm`` this returns an empty list
    and the leak check degrades to a no-op.
    """
    try:
        return sorted(
            n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)
        )
    except OSError:
        return []


def quiet_close(seg: shared_memory.SharedMemory) -> None:
    """Close a segment's mapping, tolerating live zero-copy views.

    When adopted sample views still pin the mapping, ``mmap.close`` raises
    ``BufferError`` — and would raise again, noisily, from
    ``SharedMemory.__del__`` at GC time.  Unlinking does not need the map
    closed, so on a pinned map we silence the destructor's retry and let
    the OS reclaim the pages when the process exits.
    """
    try:
        seg.close()
    except BufferError:
        seg.close = lambda: None  # type: ignore[method-assign]
    except Exception:
        pass


class ShmPoolBuffer(PoolBuffer):
    """A pooled allocation backed by a ``SharedMemory`` segment.

    ``raw`` is the segment's mapped buffer, so :attr:`~PoolBuffer.view` /
    :meth:`~PoolBuffer.readonly` expose the same physical bytes in every
    process that attaches the segment.  ``buf_id`` is the pool-global
    identity used by the cross-process retire RPCs; ``segment_name`` is the
    ``/dev/shm`` name peers attach by.
    """

    __slots__ = ("buf_id", "segment_name")

    def __init__(
        self,
        raw,
        nbytes: int,
        size_class: int,
        pool,
        buf_id: int,
        segment_name: str,
    ) -> None:
        super().__init__(raw, nbytes, size_class, pool)
        self.buf_id = buf_id
        self.segment_name = segment_name


class SharedSegmentPool:
    """Parent-authoritative pool of shared-memory segments.

    API-compatible with :class:`~repro.mpi.pool.BufferPool` (``acquire`` /
    ``release`` / ``adopt`` / ``adopt_if_in_use`` / ``stats`` / ``in_use`` /
    ``assert_balanced``), plus ``*_id`` variants addressing buffers by their
    pool-global id — the form the backend brokers use when a rank process
    retires a buffer it did not locally create.
    """

    def __init__(self, *, name: str = "shm-pool") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._token = secrets.token_hex(4)
        # Free segments per size class, live handles by id, and *every*
        # segment ever created (for unconditional unlink at shutdown).
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        self._records: dict[int, ShmPoolBuffer] = {}
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        # Accounting — same fields/meaning as BufferPool.
        self.acquires = 0
        self.releases = 0
        self.adopts = 0
        self.hits = 0
        self.misses = 0
        self.bytes_served = 0
        self.bytes_allocated = 0
        self.high_water = 0
        self._atexit = atexit.register(self.shutdown)
        self._owner_pid = os.getpid()

    # ------------------------------------------------------------- lifecycle
    def acquire(self, nbytes: int) -> ShmPoolBuffer:
        """Hand out a segment-backed buffer with >= ``nbytes`` capacity."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        cls = _size_class(nbytes)
        with self._lock:
            if self._closed:
                raise RuntimeError(f"pool {self.name!r} is shut down")
            free = self._free.get(cls)
            if free:
                seg = free.pop()
                self.hits += 1
            else:
                seg = shared_memory.SharedMemory(
                    name=f"{SEGMENT_PREFIX}{self._owner_pid}-{self._token}-"
                    f"{next(self._ids)}",
                    create=True,
                    size=cls,
                )
                self._segments[seg.name] = seg
                self.misses += 1
                self.bytes_allocated += cls
            self.acquires += 1
            self.bytes_served += nbytes
            in_use = self.acquires - self.releases - self.adopts
            if in_use > self.high_water:
                self.high_water = in_use
            buf = ShmPoolBuffer(seg.buf, nbytes, cls, self, next(self._ids), seg.name)
            self._records[buf.buf_id] = buf
        return buf

    def acquire_handle(self, nbytes: int) -> tuple[int, str, int, int]:
        """Acquire for a remote process: returns the wire handle
        ``(buf_id, segment_name, nbytes, size_class)`` the rank attaches by."""
        buf = self.acquire(nbytes)
        return (buf.buf_id, buf.segment_name, buf.nbytes, buf.size_class)

    def handle(self, buf_id: int) -> ShmPoolBuffer:
        """The canonical in-parent buffer object for ``buf_id`` (KeyError if
        the id was never issued or its record was already retired)."""
        with self._lock:
            return self._records[buf_id]

    def release(self, buf: ShmPoolBuffer) -> None:
        """Return ``buf``'s segment for reuse (strict: double retire raises)."""
        self.release_id(buf.buf_id)

    def adopt(self, buf: ShmPoolBuffer) -> None:
        """Transfer ``buf`` out of rotation; the segment stays mapped until
        :meth:`shutdown` so long-lived zero-copy views stay valid."""
        self.adopt_id(buf.buf_id)

    def adopt_if_in_use(self, buf: ShmPoolBuffer) -> bool:
        """Idempotent adopt for teardown paths (see ``BufferPool``)."""
        return self.adopt_if_in_use_id(buf.buf_id)

    def release_id(self, buf_id: int) -> None:
        """Strict release addressed by pool-global id."""
        self._retire(buf_id, "released", keep=True, strict=True)

    def adopt_id(self, buf_id: int) -> None:
        """Strict adopt addressed by pool-global id."""
        self._retire(buf_id, "adopted", keep=False, strict=True)

    def adopt_if_in_use_id(self, buf_id: int) -> bool:
        """Idempotent adopt addressed by pool-global id; returns whether this
        call was the one that retired the buffer."""
        return self._retire(buf_id, "adopted", keep=False, strict=False)

    def _retire(self, buf_id: int, new_state: str, *, keep: bool, strict: bool) -> bool:
        with self._lock:
            buf = self._records.get(buf_id)
            if buf is None or buf.state != "in_use":
                if strict:
                    state = "unknown" if buf is None else buf.state
                    raise RuntimeError(
                        f"shm buffer #{buf_id} already {state}; double "
                        "release/adopt is a use-after-free in waiting"
                    )
                return False
            buf.state = new_state
            if keep:
                self.releases += 1
                del self._records[buf_id]
                seg = self._segments.get(buf.segment_name)
                if seg is not None:
                    self._free.setdefault(buf.size_class, []).append(seg)
            else:
                # Adopted: keep the record (views may still arrive on the
                # wire) but never hand the segment out again.
                self.adopts += 1
        return True

    def _unlink_locked(self, seg: shared_memory.SharedMemory) -> None:
        self._segments.pop(seg.name, None)
        quiet_close(seg)
        try:
            seg.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------ accounting
    def in_use(self) -> int:
        """Buffers acquired and neither released nor adopted."""
        with self._lock:
            return self.acquires - self.releases - self.adopts

    def free_buffers(self) -> int:
        """Segments currently parked on free lists."""
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
        """Accounting snapshot (same keys as ``BufferPool.stats`` plus the
        live segment count)."""
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
                "segments": len(self._segments),
            }

    def clear(self) -> None:
        """Unlink every free-listed segment (in-use/adopted unaffected)."""
        with self._lock:
            for segs in self._free.values():
                for seg in segs:
                    self._unlink_locked(seg)
            self._free.clear()

    # -------------------------------------------------------------- shutdown
    def shutdown(self) -> None:
        """Unlink every segment this pool ever created.  Idempotent; called
        by the launcher on all exit paths and registered with ``atexit`` as
        a backstop.  A forked child inheriting the registration is a no-op
        (only the creating process owns the names)."""
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for seg in list(self._segments.values()):
                self._unlink_locked(seg)
            self._free.clear()
        try:
            atexit.unregister(self.shutdown)
        except Exception:
            pass
