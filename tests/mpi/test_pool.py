"""BufferPool: size classes, reuse, leak accounting, ownership protocol.

The protocol cases are written once (the ``*Cases`` classes) and run over
both allocators: ``TestReuse`` / ``TestOwnership`` / ``TestStats`` on the
heap, ``TestSharedMemory`` on ``/dev/shm`` segments.  What only one
allocator does stays beside it: the heap's free-list bound below, the
segment lifetime rules in ``test_shm_pool.py``.
"""

import threading

import pytest

from repro.mpi import BufferPool, HeapAllocator, SegmentAllocator
from repro.mpi.pool import _size_class


class _OverAnAllocator:
    """``make_pool(name=...)`` builds pools over ``self.allocator`` and
    shuts them down after the test (segments must not outlive it)."""

    allocator = HeapAllocator

    @pytest.fixture
    def make_pool(self):
        pools = []

        def make(name="pool"):
            pools.append(BufferPool(self.allocator(), name=name))
            return pools[-1]

        yield make
        for pool in pools:
            pool.shutdown()

    @pytest.fixture
    def pool(self, make_pool):
        return make_pool()


class TestSizeClasses:
    @pytest.mark.parametrize(
        "nbytes,expected",
        [(0, 256), (1, 256), (256, 256), (257, 512), (4096, 4096), (4097, 8192)],
    )
    def test_power_of_two_min_256(self, nbytes, expected):
        assert _size_class(nbytes) == expected

    def test_view_exposes_requested_length_not_capacity(self):
        pool = BufferPool()
        buf = pool.acquire(300)
        assert buf.view.nbytes == 300
        assert buf.readonly().nbytes == 300
        assert len(buf.raw) == 512
        assert buf.readonly().readonly
        buf.release()


class ReuseCases(_OverAnAllocator):
    def test_release_then_acquire_recycles(self, pool):
        a = pool.acquire(100)
        raw = a.raw
        a.release()
        b = pool.acquire(200)  # same 256 B class
        assert b.raw is raw
        assert b.segment_name == a.segment_name
        assert b.buf_id != a.buf_id  # an id names one acquisition, not the bytes
        assert pool.stats()["hits"] == 1
        assert pool.stats()["misses"] == 1
        b.release()

    def test_different_classes_do_not_mix(self, pool):
        a = pool.acquire(100)
        a.release()
        b = pool.acquire(1000)
        assert b.raw is not a.raw
        assert pool.stats()["misses"] == 2
        b.release()

    def test_negative_size_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.acquire(-1)


class OwnershipCases(_OverAnAllocator):
    def test_leak_accounting(self, make_pool):
        pool = make_pool(name="leaky")
        a = pool.acquire(10)
        b = pool.acquire(10)
        assert pool.in_use() == 2
        a.release()
        pool.adopt_if_in_use(b)
        assert pool.in_use() == 0
        pool.assert_balanced()
        leaked = pool.acquire(10)
        with pytest.raises(RuntimeError, match="'leaky' leaked 1 buffer"):
            pool.assert_balanced()
        leaked.release()

    def test_adopted_buffers_never_reused(self, pool):
        a = pool.acquire(64)
        raw = a.raw
        pool.adopt_if_in_use(a)
        b = pool.acquire(64)
        assert b.raw is not raw
        b.release()

    def test_double_release_raises(self, pool):
        a = pool.acquire(10)
        a.release()
        with pytest.raises(RuntimeError, match="use-after-free"):
            a.release()

    def test_release_after_adopt_raises(self, pool):
        a = pool.acquire(10)
        pool.adopt_if_in_use(a)
        with pytest.raises(RuntimeError, match="already adopted"):
            a.release()

    def test_wrong_pool_rejected(self, make_pool):
        p1, p2 = make_pool(name="p1"), make_pool(name="p2")
        a = p1.acquire(10)
        with pytest.raises(ValueError, match="belongs to pool 'p1'"):
            p2.release(a)
        a.release()

    def test_adopt_if_in_use_is_idempotent(self, pool):
        a = pool.acquire(10)
        assert pool.adopt_if_in_use(a) is True
        assert pool.adopt_if_in_use(a) is False  # second caller loses quietly
        assert pool.stats()["adopts"] == 1
        b = pool.acquire(10)
        b.release()
        assert pool.adopt_if_in_use(b) is False  # released is not in_use

    def test_concurrent_retire_exactly_one_winner(self, pool):
        # The exchange-abort race: sender and receiver both try to retire
        # the same in-flight buffer (from their own threads here; under
        # ``procs`` from their ranks' broker threads, on this very object).
        for _ in range(50):
            buf = pool.acquire(128)
            wins = []
            barrier = threading.Barrier(2)

            def contend():
                barrier.wait()
                wins.append(pool.adopt_if_in_use(buf))

            threads = [threading.Thread(target=contend) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(wins) == [False, True]
        pool.assert_balanced()


class StatsCases(_OverAnAllocator):
    def test_counters(self, make_pool):
        pool = make_pool(name="s")
        a = pool.acquire(100)
        b = pool.acquire(1000)
        a.release()
        c = pool.acquire(50)  # hit on the 256 B class
        st = pool.stats()
        assert st["name"] == "s"
        assert st["acquires"] == 3
        assert st["hits"] == 1
        assert st["misses"] == 2
        assert st["bytes_served"] == 1150
        assert st["bytes_allocated"] == 256 + 1024
        assert st["high_water"] == 2
        assert st["in_use"] == 2
        assert st["free_buffers"] == 0
        b.release()
        pool.adopt_if_in_use(c)
        st = pool.stats()
        assert st["releases"] == 2
        assert st["adopts"] == 1
        assert st["in_use"] == 0
        assert st["free_buffers"] == 1


class TestReuse(ReuseCases):
    def test_free_list_bounded(self, pool):
        limit = HeapAllocator.park_limit
        assert limit == 32
        bufs = [pool.acquire(64) for _ in range(limit + 3)]
        for b in bufs:
            b.release()
        assert pool.stats()["free_buffers"] == limit  # excess dropped to the GC
        assert pool.stats()["releases"] == limit + 3


class TestOwnership(OwnershipCases):
    pass


class TestStats(StatsCases):
    pass


class TestSharedMemory(ReuseCases, OwnershipCases, StatsCases):
    allocator = SegmentAllocator
