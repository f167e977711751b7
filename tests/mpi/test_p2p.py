"""Point-to-point semantics of the in-process MPI substrate."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, RankFailed, Status, run_spmd, waitall


class TestSendRecv:
    def test_simple_pair(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        out = run_spmd(main, 2)
        assert out[1] == {"a": 7}

    def test_numpy_payload(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(100, dtype=np.float64), dest=1)
                return None
            got = comm.recv(source=0)
            return got.sum()

        out = run_spmd(main, 2)
        assert out[1] == pytest.approx(4950.0)

    def test_tag_matching(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("tag5", dest=1, tag=5)
                comm.send("tag3", dest=1, tag=3)
                return None
            # Receive out of send order by tag.
            first = comm.recv(source=0, tag=3)
            second = comm.recv(source=0, tag=5)
            return (first, second)

        out = run_spmd(main, 2)
        assert out[1] == ("tag3", "tag5")

    def test_fifo_per_source_tag(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1, tag=0)
                return None
            return [comm.recv(source=0, tag=0) for _ in range(10)]

        out = run_spmd(main, 2)
        assert out[1] == list(range(10))

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank == comm.size - 1:
                got = set()
                for _ in range(comm.size - 1):
                    st = Status()
                    payload = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
                    assert payload == st.source * 100
                    got.add(st.source)
                return got
            comm.send(comm.rank * 100, dest=comm.size - 1, tag=comm.rank)
            return None

        out = run_spmd(main, 5)
        assert out[4] == {0, 1, 2, 3}

    def test_negative_tag_rejected(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=-5)
            return None

        with pytest.raises(RankFailed):
            run_spmd(main, 2, deadline_s=10)

    def test_dest_out_of_range_rejected(self):
        def main(comm):
            comm.send(1, dest=comm.size, tag=0)

        with pytest.raises(RankFailed):
            run_spmd(main, 2, deadline_s=10)


def _send_by_reference_worker(comm):
    if comm.rank == 0:
        buf = np.arange(1000, dtype=np.float64)
        comm.isend(buf, dest=1, tag=3).wait()
        comm.barrier()
        return buf
    got = comm.recv(source=0, tag=3)
    comm.barrier()
    return got


class TestOneSendSemantics:
    """A payload travels by reference on every world, with ``run_spmd``'s
    defaults: under ``threads`` the receiver holds the sender's object and
    nothing is charged as a copy; under ``procs`` the same bytes arrive."""

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_isend_passes_the_array_by_reference(self, backend):
        result = run_spmd(_send_by_reference_worker, 2, backend=backend)
        sent, got = result
        assert got.tobytes() == sent.tobytes()
        if backend == "threads":
            assert got is sent
        assert result.world.total_bytes_copied() == 0

    def test_a_copying_world_cannot_be_asked_for(self):
        with pytest.raises(ValueError, match="copy_on_send"):
            run_spmd(_send_by_reference_worker, 2, copy_on_send=True)


class TestNonBlocking:
    def test_isend_irecv_roundtrip(self):
        def main(comm):
            peer = 1 - comm.rank
            sreq = comm.isend(comm.rank * 7, dest=peer, tag=2)
            rreq = comm.irecv(source=peer, tag=2)
            sreq.wait()
            return rreq.wait()

        out = run_spmd(main, 2)
        assert list(out) == [7, 0]

    def test_irecv_test_polls(self):
        def main(comm):
            if comm.rank == 0:
                comm.barrier()  # ensure rank1 posted irecv first
                comm.send("late", dest=1, tag=9)
                return None
            req = comm.irecv(source=0, tag=9)
            done, _ = req.test()
            assert not done  # nothing sent yet
            comm.barrier()
            return req.wait()

        out = run_spmd(main, 2)
        assert out[1] == "late"

    def test_waitall_burst(self):
        """Algorithm 1 shape: a burst of isend/irecv completed together."""

        def main(comm):
            reqs = []
            for d in range(comm.size):
                if d != comm.rank:
                    reqs.append(comm.isend((comm.rank, d), dest=d, tag=1))
            recvs = [comm.irecv(source=ANY_SOURCE, tag=1) for _ in range(comm.size - 1)]
            waitall(reqs)
            payloads = waitall(recvs)
            assert all(p[1] == comm.rank for p in payloads)
            return sorted(p[0] for p in payloads)

        out = run_spmd(main, 4)
        for r in range(4):
            assert out[r] == sorted(set(range(4)) - {r})

    def test_completed_request_wait_idempotent(self):
        def main(comm):
            peer = 1 - comm.rank
            comm.send(42, dest=peer)
            req = comm.irecv(source=peer)
            assert req.wait() == 42
            assert req.wait() == 42  # second wait returns cached payload
            assert req.completed
            return None

        run_spmd(main, 2)


class TestProbe:
    def test_probe_does_not_consume(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=4)
                return None
            while not comm.iprobe(source=0, tag=4):
                pass
            assert comm.iprobe(source=0, tag=4)  # still queued
            return comm.recv(source=0, tag=4)

        out = run_spmd(main, 2)
        assert out[1] == "x"

    def test_iprobe_false_when_empty(self):
        def main(comm):
            assert not comm.iprobe()
            return True

        out = run_spmd(main, 2)
        assert all(out)


class TestFailurePropagation:
    def test_rank_exception_unblocks_peers(self):
        def main(comm):
            if comm.rank == 0:
                raise ValueError("deliberate")
            # Rank 1 would deadlock forever without abort propagation.
            comm.recv(source=0, tag=0)

        with pytest.raises(RankFailed) as exc_info:
            run_spmd(main, 2, deadline_s=30)
        assert 0 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[0], ValueError)

    def test_deadline_breaks_deadlock(self):
        def main(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=0)  # circular wait

        with pytest.raises(RankFailed):
            run_spmd(main, 2, deadline_s=0.5)


class TestTagBounds:
    def test_oversized_tag_rejected(self):
        from repro.mpi import Communicator

        def main(comm):
            with pytest.raises(ValueError, match="tag must be <"):
                comm.send(1, dest=0, tag=Communicator.MAX_TAG)
            return True

        assert all(run_spmd(main, 1))

    def test_max_minus_one_ok(self):
        from repro.mpi import Communicator

        def main(comm):
            comm.send("edge", dest=comm.rank, tag=Communicator.MAX_TAG - 1)
            return comm.recv(source=comm.rank, tag=Communicator.MAX_TAG - 1)

        assert run_spmd(main, 1)[0] == "edge"
