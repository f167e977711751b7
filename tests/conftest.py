"""Repo-wide fixtures.

The shared-memory leak check runs around *every* test: any ``/dev/shm``
segment carrying the pool prefix that survives a test is a leak in the
``procs`` backend's unlink-on-every-exit-path discipline and fails the
test that left it behind.
"""

import pytest

from repro.mpi.shm_pool import live_segments


@pytest.fixture(autouse=True)
def _no_leaked_shm_segments():
    before = live_segments()
    yield
    after = live_segments()
    leaked = [name for name in after if name not in before]
    assert not leaked, (
        f"test leaked shared-memory segments in /dev/shm: {leaked} — "
        "every exit path of a BufferPool over a SegmentAllocator must unlink its segments"
    )
