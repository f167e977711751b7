"""Collective operations of the in-process MPI substrate."""

import numpy as np
import pytest

from repro.mpi import RankFailed, run_spmd


class TestBarrierBcast:
    def test_barrier_completes(self):
        def main(comm):
            for _ in range(5):
                comm.barrier()
            return True

        assert all(run_spmd(main, 4))

    def test_bcast_from_root(self):
        def main(comm):
            data = {"k": [1, 2, 3]} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        out = run_spmd(main, 4)
        assert all(v == {"k": [1, 2, 3]} for v in out)

    def test_bcast_nonzero_root(self):
        def main(comm):
            data = comm.rank if comm.rank == 2 else None
            return comm.bcast(data, root=2)

        assert list(run_spmd(main, 4)) == [2, 2, 2, 2]


class TestReductions:
    def test_allreduce_sum_default(self):
        def main(comm):
            return comm.allreduce(comm.rank + 1)

        assert list(run_spmd(main, 4)) == [10, 10, 10, 10]

    def test_allreduce_numpy_gradient_shape(self):
        """The synchronous-SGD use: average numpy gradients across ranks."""

        def main(comm):
            grad = np.full(5, float(comm.rank))
            total = comm.allreduce(grad)
            return total / comm.size

        out = run_spmd(main, 4)
        expected = np.full(5, (0 + 1 + 2 + 3) / 4)
        for v in out:
            assert np.allclose(v, expected)

    def test_allreduce_custom_op(self):
        def main(comm):
            return comm.allreduce(comm.rank, op=max)

        assert list(run_spmd(main, 5)) == [4] * 5

    def test_reduce_only_root_gets_value(self):
        def main(comm):
            return comm.reduce(comm.rank, root=1)

        out = run_spmd(main, 4)
        assert out[1] == 6
        assert out[0] is None and out[2] is None and out[3] is None


class TestGatherScatter:
    def test_gather(self):
        def main(comm):
            return comm.gather((comm.rank + 1) ** 2, root=0)

        out = run_spmd(main, 4)
        assert out[0] == [1, 4, 9, 16]
        assert out[1] is None

    def test_allgather_ordered(self):
        def main(comm):
            return comm.allgather(comm.rank * 10)

        out = run_spmd(main, 4)
        assert all(v == [0, 10, 20, 30] for v in out)

    def test_scatter(self):
        def main(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        assert list(run_spmd(main, 3)) == ["item0", "item1", "item2"]

    def test_scatter_wrong_length_raises(self):
        def main(comm):
            objs = [1] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        with pytest.raises(RankFailed):
            run_spmd(main, 3, deadline_s=10)


class TestAlltoall:
    def test_alltoall_permutation(self):
        def main(comm):
            sends = [comm.rank * 100 + d for d in range(comm.size)]
            return comm.alltoall(sends)

        out = run_spmd(main, 4)
        for r in range(4):
            assert out[r] == [s * 100 + r for s in range(4)]

    def test_alltoall_numpy_chunks(self):
        def main(comm):
            sends = [np.full(2, comm.rank * 10 + d) for d in range(comm.size)]
            got = comm.alltoall(sends)
            return [int(g[0]) for g in got]

        out = run_spmd(main, 3)
        for r in range(3):
            assert out[r] == [s * 10 + r for s in range(3)]

    def test_alltoall_wrong_length(self):
        def main(comm):
            comm.alltoall([1, 2])  # size is 3

        with pytest.raises(RankFailed):
            run_spmd(main, 3, deadline_s=10)


class TestRepeatedCollectives:
    def test_many_sequential_allreduce_generations(self):
        """Generation counters must keep successive collectives isolated."""

        def main(comm):
            vals = [comm.allreduce(comm.rank + i) for i in range(20)]
            return vals

        out = run_spmd(main, 3)
        base = 0 + 1 + 2
        for r in range(3):
            assert out[r] == [base + 3 * i for i in range(20)]

    def test_mixed_collectives_in_order(self):
        def main(comm):
            a = comm.allreduce(1)
            comm.barrier()
            b = comm.allgather(comm.rank)
            c = comm.bcast("z" if comm.rank == 0 else None)
            return (a, b, c)

        out = run_spmd(main, 4)
        assert all(v == (4, [0, 1, 2, 3], "z") for v in out)
