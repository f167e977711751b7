"""MPI-layer failure detection: epitaphs, PeerFailure, shrink consensus."""

import numpy as np
import pytest

from repro.mpi import PeerFailure, RankDied, RankFailed, run_spmd
from repro.mpi.errors import MPIAbort


class TestRankDiedLaunch:
    def test_dead_rank_result_is_the_exception(self):
        def worker(comm):
            if comm.rank == 1:
                raise RankDied("power supply fire")
            return comm.rank

        results = run_spmd(worker, 3)
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], RankDied)
        assert "power supply" in str(results[1])

    def test_world_records_epitaph(self):
        def worker(comm):
            if comm.rank == 2:
                raise RankDied("oom")
            return True

        results = run_spmd(worker, 3)
        assert results.world.dead_ranks() == frozenset({2})
        assert results.world.epitaphs[2] == "oom"

    def test_plain_exception_still_aborts_world(self):
        def worker(comm):
            if comm.rank == 0:
                raise ValueError("a bug, not a fault")
            comm.barrier()

        with pytest.raises(RankFailed):
            run_spmd(worker, 2)


class TestPeerFailureDetection:
    def test_collective_with_dead_peer_raises(self):
        def worker(comm):
            if comm.rank == 1:
                raise RankDied()
            try:
                comm.allreduce(1)
            except PeerFailure as exc:
                return ("detected", exc.rank, exc.op)
            return "undetected"

        results = run_spmd(worker, 3)
        assert results[0] == ("detected", 1, "allreduce")
        assert results[2] == ("detected", 1, "allreduce")

    def test_matched_recv_from_dead_source_raises(self):
        def worker(comm):
            if comm.rank == 1:
                raise RankDied("gone")
            if comm.rank == 0:
                with pytest.raises(PeerFailure) as err:
                    comm.recv(source=1, tag=5)
                return err.value.epitaph
            return None

        results = run_spmd(worker, 2)
        assert results[0] == "gone"

    def test_buffered_sends_drain_before_failure_surfaces(self):
        # A message posted before the death is still delivered, like
        # in-flight packets of a crashed peer.
        def worker(comm):
            if comm.rank == 1:
                comm.send(np.arange(3), dest=0, tag=9)
                raise RankDied()
            got = comm.recv(source=1, tag=9)
            with pytest.raises(PeerFailure):
                comm.recv(source=1, tag=9)
            return got

        results = run_spmd(worker, 2)
        np.testing.assert_array_equal(results[0], np.arange(3))


class TestShrink:
    def test_shrink_rebuilds_consistent_communicator(self):
        def worker(comm):
            if comm.rank == 2:
                raise RankDied()
            try:
                comm.allreduce(1)
            except PeerFailure:
                pass
            new = comm.shrink()
            total = new.allreduce(1)
            return (new.rank, new.size, new.group, total)

        results = run_spmd(worker, 4)
        assert results[0] == (0, 3, (0, 1, 3), 3)
        assert results[1] == (1, 3, (0, 1, 3), 3)
        assert results[3] == (2, 3, (0, 1, 3), 3)

    def test_shrunk_comm_isolated_from_old_traffic(self):
        # A message sent on the old communicator must not match a receive
        # posted on the shrunk one (fresh context id).
        def worker(comm):
            if comm.rank == 1:
                comm.send("stale", dest=0, tag=3)
                raise RankDied()
            new = comm.shrink()
            if new.size != comm.size - 1:
                return "bad size"
            assert not new.iprobe(tag=3)
            return "isolated"

        results = run_spmd(worker, 3)
        assert results[0] == "isolated" and results[2] == "isolated"

    def test_repeated_shrink(self):
        def worker(comm):
            if comm.rank == 1:
                raise RankDied("first")
            c1 = comm.shrink()
            if comm.rank == 3:
                raise RankDied("second")
            try:
                c1.barrier()
            except PeerFailure:
                pass
            c2 = c1.shrink()
            return (c2.group, c2.allreduce(c2.rank))

        results = run_spmd(worker, 4)
        assert results[0] == ((0, 2), 1)
        assert results[2] == ((0, 2), 1)


class TestRequestCancel:
    def test_cancelled_recv_not_pending(self):
        def worker(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=7)
                req.cancel()
                assert req.completed and req.cancelled
                assert comm.pending_requests() == []
            comm.barrier()
            return True

        assert list(run_spmd(worker, 2)) == [True, True]

    def test_abort_still_wins_over_death(self):
        # mark_dead is non-fatal, abort is fatal: a real error elsewhere
        # still unblocks everyone.
        def worker(comm):
            if comm.rank == 1:
                raise RankDied()
            if comm.rank == 2:
                raise RuntimeError("real bug")
            with pytest.raises((PeerFailure, MPIAbort)):
                while True:
                    comm.recv(source=2, tag=0)
            return None

        with pytest.raises(RankFailed) as err:
            run_spmd(worker, 3)
        assert 2 in err.value.failures
