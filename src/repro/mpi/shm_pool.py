"""Shared-memory allocator for the exchange buffer pool.

The ``procs`` backend moves ranks into real OS processes, so the zero-copy
discipline of :class:`~repro.mpi.pool.BufferPool` needs bytes both sides can
map.  The pool stays the same class; :class:`SegmentAllocator` gives it
``multiprocessing.shared_memory`` segments in place of heap bytes, and
every :class:`~repro.mpi.pool.PoolBuffer` it hands out carries the segment's
name.  What differs from the heap, and only that, is here:

* the pool lives in the **parent** (world-host) process and is the single
  authority for acquire/release/adopt accounting — rank processes retire a
  buffer by its ``buf_id`` over the backend RPC channel, so double-release
  detection and the idempotent teardown adopt (``adopt_if_in_use``) stay
  exact even when sender and receiver race across process boundaries;
* a segment travels on the wire as a *handle envelope* (name + id + length),
  never as payload bytes — the receiving process attaches the same segment
  and reads the bytes in place;
* a released segment **always** goes back on its size class's free list
  (``park_limit`` is ``None``): rank processes keep every segment they ever
  attached mapped (two fds each), so unlinking one behind their backs would
  only orphan those mappings.  The exchange's frames in flight bound the
  high-water mark, so the free lists — and every rank's mappings — stop
  growing after the first epoch;
* segments are unlinked only by the pool's ``clear()`` (the parked ones)
  and ``shutdown()`` (every one ever created); the launcher invokes the
  latter on every exit path (normal return, rank kill, exception, deadline)
  and the allocator additionally registers it with :mod:`atexit` as a
  backstop, so repeated runs never leak ``/dev/shm`` entries.

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

__all__ = ["SEGMENT_PREFIX", "SegmentAllocator", "live_segments", "quiet_close"]

#: Prefix of every shared-memory segment the allocator creates; the
#: leak-check fixture globs ``/dev/shm/<SEGMENT_PREFIX>*`` to assert nothing
#: survived.
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


class SegmentAllocator:
    """Bytes two processes can map: one named ``/dev/shm`` segment per
    buffer, owned (created, unlinked) by the process that made the
    allocator."""

    #: Never hand a released segment back early (see the module docstring).
    park_limit = None

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names = itertools.count(1)
        self._token = secrets.token_hex(4)
        self._owner_pid = os.getpid()
        # Every segment created and not yet unlinked, whatever its buffer's
        # state, for the unconditional unlink at shutdown.
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        atexit.register(self.shutdown)

    def allocate(self, size: int) -> tuple[memoryview, str]:
        """A fresh segment of ``size`` bytes: ``(mapped bytes, name)``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("shared-memory allocator is shut down")
            seg = shared_memory.SharedMemory(
                name=f"{SEGMENT_PREFIX}{self._owner_pid}-{self._token}-"
                f"{next(self._names)}",
                create=True,
                size=size,
            )
            self._segments[seg.name] = seg
        return seg.buf, seg.name

    def free(self, blocks: list) -> None:
        """Unlink the segments behind ``blocks`` (the pool's ``clear()``)."""
        with self._lock:
            for _raw, name in blocks:
                seg = self._segments.pop(name, None)
                if seg is not None:  # None: already unlinked by shutdown()
                    self._unlink(seg)

    @staticmethod
    def _unlink(seg: shared_memory.SharedMemory) -> None:
        quiet_close(seg)
        try:
            seg.unlink()
        except FileNotFoundError:
            pass

    def stats(self) -> dict:
        """The live segment count, for the pool's ``stats()``."""
        with self._lock:
            return {"segments": len(self._segments)}

    def shutdown(self) -> None:
        """Unlink every segment this allocator ever created.  Idempotent;
        reached through the pool's ``shutdown()`` on all launcher exit
        paths and registered with ``atexit`` as a backstop.  A forked child
        inheriting the registration is a no-op (only the creating process
        owns the names)."""
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for seg in self._segments.values():
                self._unlink(seg)
            self._segments.clear()
        atexit.unregister(self.shutdown)
