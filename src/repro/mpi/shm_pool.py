"""Shared-memory allocator for the exchange buffer pool.

The ``procs`` backend moves ranks into real OS processes, so the zero-copy
discipline of :class:`~repro.mpi.pool.BufferPool` needs bytes both sides can
map.  The pool stays the same class; :class:`SegmentAllocator` gives it
``/dev/shm`` segments in place of heap bytes, each
:class:`~repro.mpi.pool.PoolBuffer` carrying its segment's name:

* each rank process owns its pool and the segments behind it
  (:meth:`SegmentAllocator.for_rank`): a pool miss is a local
  ``shm_open`` and the ledger is the rank's;
* a segment travels as a *handle* (name + length), never as payload
  bytes: a receiver maps it by name (:func:`attach`), keeps the mapping,
  and reads in place;
* a released segment **always** goes back on its size class's free list
  (``park_limit`` is ``None``): receivers keep what they mapped, and the
  frames in flight bound the high-water mark after the first epoch;
* names carry the launch and, for a rank's, the rank
  (``repro-shm-<pid>-<token>-r<rank>-<n>``).  The launch's
  :meth:`~SegmentAllocator.shutdown` unlinks every one of them — in use or
  not, a live rank's or a dead one's — on every exit path of the launcher,
  with :mod:`atexit` as a backstop.  Nothing is registered with the
  resource tracker: a rank's death must not unlink what survivors map.
"""

from __future__ import annotations

import _posixshmem
import atexit
import copy
import itertools
import mmap
import os
import secrets
import threading

__all__ = ["SEGMENT_PREFIX", "SegmentAllocator", "attach", "live_segments", "quiet_close"]

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


def attach(name: str, size: int) -> mmap.mmap:
    """Map segment ``name``: a new one of ``size`` bytes, or with ``size``
    0 the existing one, whole.  The mapping holds one descriptor; nothing
    is registered with the resource tracker."""
    flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if size else 0)
    fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
    try:
        if size:
            os.ftruncate(fd, size)
        return mmap.mmap(fd, size)
    finally:
        os.close(fd)


def unlink(name: str) -> None:
    """Remove ``name`` from ``/dev/shm`` (mappings of it stay valid)."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass


def quiet_close(seg: mmap.mmap) -> None:
    """Close a segment's mapping, tolerating live zero-copy views.

    When adopted sample views still pin the mapping, ``mmap.close`` raises
    ``BufferError``.  Unlinking does not need the map closed, so a pinned
    map is left for the OS to reclaim when the process exits.
    """
    try:
        seg.close()
    except BufferError:
        pass


class SegmentAllocator:
    """Bytes two processes can map: one named ``/dev/shm`` segment per
    buffer.  The process that made the allocator owns the launch's names
    and unlinks them all at :meth:`shutdown`."""

    #: Never hand a released segment back early (see the module docstring).
    park_limit = None

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names = itertools.count(1)
        self._owner_pid = os.getpid()
        self.prefix = f"{SEGMENT_PREFIX}{self._owner_pid}-{secrets.token_hex(4)}-"
        # Every segment this process created and not yet unlinked, whatever
        # its buffer's state, for the unconditional unlink at shutdown.
        self._segments: dict[str, mmap.mmap] = {}
        self._closed = False
        atexit.register(self.shutdown)

    def for_rank(self, rank: int) -> "SegmentAllocator":
        """The allocator rank process ``rank`` of this launch makes its own
        segments with: names under ``<launch>r<rank>-``, unlinked by this
        (the launching) allocator's :meth:`shutdown`, never by the rank."""
        mine = copy.copy(self)
        mine._lock, mine._names, mine._segments = threading.Lock(), itertools.count(1), {}
        mine.prefix = f"{self.prefix}r{rank}-"
        return mine

    def allocate(self, size: int) -> tuple[memoryview, str]:
        """A fresh segment of ``size`` bytes: ``(mapped bytes, name)``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("shared-memory allocator is shut down")
            name = f"{self.prefix}{next(self._names)}"
            seg = self._segments[name] = attach(name, size)
        return memoryview(seg), name

    def stats(self) -> dict:
        """The live segment count, for the pool's ``stats()``."""
        with self._lock:
            return {"segments": len(self._segments)}

    def shutdown(self) -> None:
        """Unlink every segment of the launch — this process's and every
        rank's.  Idempotent; reached through the pool's ``shutdown()`` on
        all launcher exit paths and registered with ``atexit`` as a
        backstop.  In any other process (a rank's allocator, or a fork
        inheriting the registration) it is a no-op: only the launch owns
        the names."""
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for name, seg in self._segments.items():
                quiet_close(seg)
                unlink(name)
            self._segments.clear()
            for name in live_segments():
                if name.startswith(self.prefix):
                    unlink(name)
        atexit.unregister(self.shutdown)
