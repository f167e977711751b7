"""Launcher and communicator-management behaviour."""

import numpy as np
import pytest

from repro.mpi import Communicator, RankFailed, World, run_spmd


class TestRunSpmd:
    def test_single_rank(self):
        out = run_spmd(lambda comm: comm.rank, 1)
        assert list(out) == [0]

    def test_args_forwarded(self):
        def main(comm, base, scale):
            return base + comm.rank * scale

        assert list(run_spmd(main, 3, args=(100, 10))) == [100, 110, 120]

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(lambda comm: None, 0)

    def test_traffic_accounting(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1000, dtype=np.float64), dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            comm.barrier()
            return None

        out = run_spmd(main, 2)
        assert out.world.bytes_sent[0] >= 8000
        assert out.world.messages_sent[0] == 1

    def test_all_failures_reported(self):
        def main(comm):
            raise RuntimeError(f"boom-{comm.rank}")

        with pytest.raises(RankFailed) as ei:
            run_spmd(main, 3, deadline_s=10)
        # At least one primary failure must be reported with its message.
        assert any("boom-" in str(e) for e in ei.value.failures.values())


class TestPendingRequests:
    def test_pending_requests_listed(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                pending = [type(r).__name__ for r in comm.pending_requests()]
                comm.send(None, dest=1)  # let rank 1 proceed
                req.wait()
                assert not comm.pending_requests()
                return pending
            comm.recv(source=0)
            comm.send(123, dest=0)
            return []

        out = run_spmd(main, 2)
        assert out[0] == ["RecvRequest"]

    def test_unwaited_request_warns(self):
        def main(comm):
            if comm.rank == 1:
                comm.irecv(source=0, tag=99)  # repro: noqa[SPMD002]
            return None

        with pytest.warns(RuntimeWarning, match="pending non-blocking"):
            run_spmd(main, 2)


class TestCommunicatorIdentity:
    def test_mpi4py_spellings(self):
        def main(comm):
            return (comm.Get_rank(), comm.Get_size())

        out = run_spmd(main, 3)
        assert list(out) == [(0, 3), (1, 3), (2, 3)]

    def test_world_rank_validation(self):
        world = World(2)
        with pytest.raises(ValueError):
            Communicator(world, 5)


class TestSplitDup:
    def test_split_into_halves(self):
        def main(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            total = sub.allreduce(comm.rank)
            return (sub.rank, sub.size, total)

        out = run_spmd(main, 4)
        # Even ranks {0,2} and odd ranks {1,3} form their own communicators.
        assert out[0] == (0, 2, 2)
        assert out[2] == (1, 2, 2)
        assert out[1] == (0, 2, 4)
        assert out[3] == (1, 2, 4)

    def test_split_key_reorders(self):
        def main(comm):
            sub = comm.split(0, key=comm.size - comm.rank)
            return sub.rank

        out = run_spmd(main, 3)
        assert list(out) == [2, 1, 0]

    def test_split_isolates_p2p(self):
        """A message sent on the sub-communicator must not match a recv posted
        on the parent with the same tag."""

        def main(comm):
            sub = comm.split(comm.rank % 2)
            if comm.rank == 0:
                sub.send("sub-msg", dest=1, tag=3)  # sub rank 1 == world rank 2
                comm.send("world-msg", dest=2, tag=3)
            if comm.rank == 2:
                world_msg = comm.recv(source=0, tag=3)
                sub_msg = sub.recv(source=0, tag=3)
                return (world_msg, sub_msg)
            comm.barrier()
            return None

        # Use barriers carefully: only ranks 0 and 2 exchange; others barrier.
        def main_safe(comm):
            sub = comm.split(comm.rank % 2)
            result = None
            if comm.rank == 0:
                sub.send("sub-msg", dest=1, tag=3)
                comm.send("world-msg", dest=2, tag=3)
            elif comm.rank == 2:
                world_msg = comm.recv(source=0, tag=3)
                sub_msg = sub.recv(source=0, tag=3)
                result = (world_msg, sub_msg)
            comm.barrier()
            return result

        out = run_spmd(main_safe, 4)
        assert out[2] == ("world-msg", "sub-msg")

    def test_dup_isolates_collectives_context(self):
        def main(comm):
            dup = comm.dup()
            a = comm.allreduce(1)
            b = dup.allreduce(2)
            return (a, b)

        out = run_spmd(main, 3)
        assert all(v == (3, 6) for v in out)

    def test_hierarchical_split_node_groups(self):
        """The hierarchical-exchange shape: world -> per-node communicators."""

        def main(comm, ranks_per_node):
            node = comm.rank // ranks_per_node
            intra = comm.split(node)
            leader = comm.split(0 if intra.rank == 0 else 1)
            node_sum = intra.allreduce(comm.rank)
            return (node, intra.size, node_sum)

        out = run_spmd(main, 8, args=(4,))
        assert out[0] == (0, 4, 0 + 1 + 2 + 3)
        assert out[7] == (1, 4, 4 + 5 + 6 + 7)


class TestDupP2PIsolation:
    def test_dup_messages_do_not_cross(self):
        """A message sent on the dup must not match a recv on the parent."""

        def main(comm):
            dup = comm.dup()
            result = None
            if comm.rank == 0:
                dup.send("dup-msg", dest=1, tag=7)
                comm.send("parent-msg", dest=1, tag=7)
            else:
                parent_msg = comm.recv(source=0, tag=7)
                dup_msg = dup.recv(source=0, tag=7)
                result = (parent_msg, dup_msg)
            comm.barrier()
            return result

        out = run_spmd(main, 2)
        assert out[1] == ("parent-msg", "dup-msg")


class TestWorldDeadline:
    def test_collective_respects_deadline(self):
        def main(comm):
            if comm.rank == 0:
                return True  # never enters the barrier
            comm.barrier()

        import time

        start = time.monotonic()
        with pytest.raises(RankFailed):
            run_spmd(main, 2, deadline_s=0.5)
        assert time.monotonic() - start < 5.0
