"""SharedSegmentPool: ownership accounting and /dev/shm hygiene."""

import pytest

from repro.mpi.pool import PoolBuffer
from repro.mpi.shm_pool import SEGMENT_PREFIX, SharedSegmentPool, live_segments


@pytest.fixture
def pool():
    p = SharedSegmentPool(name="test-shm")
    yield p
    p.shutdown()


def test_acquire_returns_poolbuffer_subclass(pool):
    buf = pool.acquire(100)
    assert isinstance(buf, PoolBuffer)
    assert buf.nbytes == 100
    assert buf.size_class >= 100
    assert buf.segment_name.startswith(SEGMENT_PREFIX)
    assert buf.segment_name in live_segments()
    pool.release(buf)


def test_release_recycles_segment(pool):
    a = pool.acquire(64)
    name = a.segment_name
    pool.release(a)
    b = pool.acquire(64)
    assert b.segment_name == name  # same size class -> free-list hit
    assert pool.hits == 1 and pool.misses == 1
    pool.release(b)


def test_double_release_raises(pool):
    buf = pool.acquire(32)
    pool.release(buf)
    with pytest.raises(RuntimeError, match="double release/adopt"):
        pool.release(buf)


def test_release_after_adopt_raises(pool):
    buf = pool.acquire(32)
    pool.adopt(buf)
    with pytest.raises(RuntimeError, match="already adopted"):
        pool.release(buf)


def test_adopt_if_in_use_is_idempotent(pool):
    buf = pool.acquire(32)
    assert pool.adopt_if_in_use(buf) is True
    assert pool.adopt_if_in_use(buf) is False
    assert pool.adopts == 1


def test_adopted_segment_stays_mapped(pool):
    buf = pool.acquire(16)
    view = buf.view
    view[:4] = b"abcd"
    pool.adopt(buf)
    # The segment is out of rotation but its bytes stay addressable until
    # shutdown — that is the point of adoption.
    assert bytes(buf.readonly()[:4]) == b"abcd"
    assert buf.segment_name in live_segments()


def test_id_addressing_matches_handles(pool):
    buf_id, name, nbytes, size_class = pool.acquire_handle(48)
    assert pool.handle(buf_id).segment_name == name
    assert nbytes == 48 and size_class >= 48
    pool.release_id(buf_id)
    with pytest.raises(RuntimeError):
        pool.release_id(buf_id)


def test_accounting_and_balance(pool):
    a, b = pool.acquire(10), pool.acquire(20)
    assert pool.in_use() == 2
    with pytest.raises(RuntimeError, match="leaked"):
        pool.assert_balanced()
    pool.release(a)
    pool.adopt(b)
    pool.assert_balanced()
    stats = pool.stats()
    assert stats["acquires"] == 2
    assert stats["releases"] == 1
    assert stats["adopts"] == 1
    assert stats["in_use"] == 0
    assert stats["segments"] == len(live_segments())


def test_shutdown_unlinks_everything():
    pool = SharedSegmentPool(name="test-shm-shutdown")
    kept = pool.acquire(128)       # still in use at shutdown
    pool.adopt(pool.acquire(64))   # adopted
    pool.release(pool.acquire(32))  # parked on a free list
    assert live_segments()
    pool.shutdown()
    assert live_segments() == []
    pool.shutdown()  # idempotent
    with pytest.raises(RuntimeError, match="shut down"):
        pool.acquire(8)
    del kept


def test_release_never_unlinks():
    """Rank processes keep every segment they attached mapped, so a release
    must park the segment, never unlink it behind their backs: only
    ``clear()`` and ``shutdown()`` remove names from ``/dev/shm``."""
    pool = SharedSegmentPool(name="test-shm-keep")
    bufs = [pool.acquire(64) for _ in range(40)]
    names = {b.segment_name for b in bufs}
    for buf in bufs:
        pool.release(buf)
    assert pool.free_buffers() == 40
    assert names <= set(live_segments())
    again = [pool.acquire(64) for _ in range(40)]
    assert {b.segment_name for b in again} == names  # all hits, no new segment
    assert pool.stats()["segments"] == 40
    for buf in again:
        pool.release(buf)
    pool.clear()
    assert pool.free_buffers() == 0
    assert not names & set(live_segments())
    pool.shutdown()
    assert live_segments() == []
