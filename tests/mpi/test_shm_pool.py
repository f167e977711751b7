"""SegmentAllocator: what only shared memory does — names, lifetime,
``/dev/shm`` hygiene.  The ownership protocol itself is the one suite in
``test_pool.py`` (``TestSharedMemory`` runs it over this allocator)."""

import pytest

from repro.mpi.pool import BufferPool, PoolBuffer
from repro.mpi.shm_pool import SEGMENT_PREFIX, SegmentAllocator, live_segments


def _shm_pool(name):
    return BufferPool(SegmentAllocator(), name=name)


@pytest.fixture
def pool():
    p = _shm_pool("test-shm")
    yield p
    p.shutdown()


def test_acquire_names_a_live_segment(pool):
    buf = pool.acquire(100)
    assert type(buf) is PoolBuffer
    assert buf.nbytes == 100
    assert buf.size_class >= 100
    assert buf.segment_name.startswith(SEGMENT_PREFIX)
    assert buf.segment_name in live_segments()
    assert pool.stats()["segments"] == len(live_segments()) == 1
    pool.release(buf)


def test_adopted_segment_stays_mapped(pool):
    buf = pool.acquire(16)
    view = buf.view
    view[:4] = b"abcd"
    pool.adopt_if_in_use(buf)
    # The segment is out of rotation but its bytes stay addressable until
    # shutdown — that is the point of adoption — and so does its handle:
    # another process can still send the id.
    assert bytes(buf.readonly()[:4]) == b"abcd"
    assert buf.segment_name in live_segments()
    assert pool.buffer(buf.buf_id) is buf


def test_id_addressing_matches_handles(pool):
    buf = pool.acquire(48)
    assert pool.buffer(buf.buf_id) is buf
    pool.release(buf)
    with pytest.raises(KeyError):  # released: the ledger forgot the id
        pool.buffer(buf.buf_id)
    assert pool.acquire(48).buf_id != buf.buf_id  # same segment, new id


def test_shutdown_unlinks_everything(own_segments):
    pool = _shm_pool("test-shm-shutdown")
    kept = pool.acquire(128)       # still in use at shutdown
    pool.adopt_if_in_use(pool.acquire(64))   # adopted
    pool.release(pool.acquire(32))  # parked on a free list
    assert live_segments()
    pool.shutdown()
    assert own_segments() == []
    pool.shutdown()  # idempotent
    with pytest.raises(RuntimeError, match="shut down"):
        pool.acquire(8)
    del kept


def test_release_never_unlinks(own_segments):
    """Rank processes keep every segment they attached mapped, so a release
    must park the segment, never unlink it behind their backs: only
    ``shutdown()`` removes names from ``/dev/shm``."""
    pool = _shm_pool("test-shm-keep")
    bufs = [pool.acquire(64) for _ in range(40)]
    names = {b.segment_name for b in bufs}
    for buf in bufs:
        pool.release(buf)
    assert pool.stats()["free_buffers"] == 40
    assert names <= set(live_segments())
    again = [pool.acquire(64) for _ in range(40)]
    assert {b.segment_name for b in again} == names  # all hits, no new segment
    assert pool.stats()["segments"] == 40
    for buf in again:
        pool.release(buf)
    assert names <= set(live_segments())
    pool.shutdown()
    assert own_segments() == []
