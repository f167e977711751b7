"""Repo-wide fixtures.

The shared-memory leak check runs around *every* test: any ``/dev/shm``
segment carrying the pool prefix that survives a test is a leak in the
``procs`` backend's unlink-on-every-exit-path discipline and fails the
test that left it behind.
"""

import os

import numpy as np
import pytest

from repro.mpi.shm_pool import SEGMENT_PREFIX, live_segments


def _ours_or_orphaned(name: str) -> bool:
    """Whether segment ``repro-shm-<pid>-<token>-<n>`` was created by this
    process or by one that no longer exists — not by another pytest run on
    the host, whose live segments are its own business."""
    pid = int(name[len(SEGMENT_PREFIX):].split("-", 1)[0])
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass
    return False


def _own_segments() -> list[str]:
    return [name for name in live_segments() if _ours_or_orphaned(name)]


@pytest.fixture
def own_segments():
    """``live_segments()`` minus those of another live process: what a test
    body may assert is empty while a second pytest run shares the host."""
    return _own_segments


def _pinned_outside_slots(storage) -> int:
    """Bytes the hot samples keep alive that are not the storage area's own
    slot chunks (following ``.base`` / ``memoryview.obj`` to whatever owns
    the memory): a pinned frame or dataset array would show up here."""
    chunks = {id(c) for pool in storage._pools.values() for c in pool.chunks}
    roots = {}
    for _sid, sample, _label in storage.items():
        root = sample
        while True:
            if isinstance(root, np.ndarray) and root.base is not None:
                root = root.base
            elif isinstance(root, memoryview):
                root = root.obj
            else:
                break
        if id(root) not in chunks:
            roots[id(root)] = root.nbytes if isinstance(root, np.ndarray) else len(root)
    return sum(roots.values())


@pytest.fixture
def pinned_outside_slots():
    """The function ``storage -> bytes its hot entries pin outside its slot
    chunks``; a rank function takes it as an argument (it runs on a forked
    copy under ``procs``)."""
    return _pinned_outside_slots


@pytest.fixture(autouse=True)
def _no_leaked_shm_segments():
    before = live_segments()
    yield
    leaked = [name for name in _own_segments() if name not in before]
    assert not leaked, (
        f"test leaked shared-memory segments in /dev/shm: {leaked} — "
        "every exit path of a BufferPool over a SegmentAllocator must unlink its segments"
    )
