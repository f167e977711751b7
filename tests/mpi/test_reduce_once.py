"""The reducing rendezvous: the world folds an allreduce once, in rank order,
and every rank is handed that one result — and under ``procs`` a fold on the
launch communicator, run in the rank processes over shared memory, folds the
same values in the same order."""

import threading
import time
from operator import add as SUM

import numpy as np
import pytest

from repro.mpi import MPIAbort, MPITimeout, PeerFailure, RankFailed, run_spmd
from repro.mpi.procs import _Broker
from repro.mpi.world import World

OPS = [None, min, max, np.minimum]
BACKENDS = ["threads", "procs"]


def reference_fold(values, op):
    """The fold every rank used to run for itself (the old ``_fold``)."""
    acc = values[0]
    if op is None:
        if isinstance(acc, np.ndarray):
            acc = acc.copy()
            for v in values[1:]:
                acc += v
            return acc
        for v in values[1:]:
            acc = acc + v
        return acc
    for v in values[1:]:
        acc = op(acc, v)
    return acc


def contribution(rank, kind):
    # Values whose float32 sum depends on the order of the additions.
    rng = np.random.default_rng(1000 + rank)
    if kind == "scalar":
        return float(rng.normal()) * 10.0 ** (rank % 3)
    return (rng.normal(size=33) * 10.0 ** (rank % 3)).astype(np.float32)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_result_is_the_rank_ordered_fold(backend, size):
    def main(comm):
        out = []
        for kind in ("scalar", "array"):
            for op in OPS:
                if kind == "array" and op in (min, max):
                    continue  # builtin min / max do not order arrays
                mine = contribution(comm.rank, kind)
                out.append(comm.allreduce(mine, op=op))
                out.append(comm.reduce(mine, op=op, root=size - 1))
        return out

    results = run_spmd(main, size, backend=backend, deadline_s=60)
    expected = []
    for kind in ("scalar", "array"):
        for op in OPS:
            if kind == "array" and op in (min, max):
                continue
            folded = reference_fold([contribution(r, kind) for r in range(size)], op)
            expected.append(folded)
    for rank, got in enumerate(results):
        for i, want in enumerate(expected):
            everywhere, at_root = got[2 * i], got[2 * i + 1]
            assert np.array_equal(everywhere, want) and type(everywhere) is type(want)
            if rank == size - 1:
                assert np.array_equal(at_root, want)
            else:
                assert at_root is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_copy_result_is_shared_and_read_only(backend):
    def main(comm):
        mine = np.full(4, float(comm.rank))
        total = comm.allreduce(mine)
        with pytest.raises(ValueError, match="read-only"):
            total /= comm.size
        # The contribution is the rank's own again once the call returned.
        mine += 1.0
        return id(total), total.copy(), mine.flags.writeable

    out = run_spmd(main, 3, backend=backend, deadline_s=60)
    assert all(np.array_equal(total, np.full(4, 3.0)) for _id, total, _w in out)
    assert all(writeable for _id, _total, writeable in out)
    if backend == "threads":
        assert len({ident for ident, _total, _w in out}) == 1  # one object


def test_result_is_never_a_contribution():
    def main(comm):
        mine = np.arange(3.0)
        total = comm.allreduce(mine, op=np.minimum)
        return total is mine, mine.flags.writeable

    assert list(run_spmd(main, 1)) == [(False, True)]


def test_a_participant_dying_before_its_deposit_fails_the_waiters():
    def main(comm):
        if comm.rank == 2:
            comm.world.mark_dead(comm.group[2], "killed before the allreduce")
            return "dead"
        with pytest.raises(PeerFailure) as err:
            comm.allreduce(np.ones(2))
        return err.value.rank

    assert list(run_spmd(main, 3, deadline_s=60)) == [2, 2, "dead"]


def test_a_double_deposit_still_raises():
    world = World(2)
    key = (0, "allreduce", 0, 2)
    done = []
    peer = threading.Thread(target=lambda: done.append(world.rendezvous(key, 1, 5, fold=SUM)))
    # Rank 0 deposits twice before rank 1 arrives.
    first = threading.Thread(target=lambda: done.append(world.rendezvous(key, 0, 1, fold=SUM)))
    first.start()
    while key not in world._coll_slots:
        time.sleep(0.001)
    with pytest.raises(RuntimeError, match="deposited twice"):
        world.rendezvous(key, 0, 1, fold=SUM)
    peer.start()
    first.join(timeout=10)
    peer.join(timeout=10)
    assert not first.is_alive() and not peer.is_alive()
    assert done == [6, 6]


def test_a_fold_that_raises_fails_the_run_not_the_lock():
    def main(comm):
        # Shapes that do not broadcast: the last depositor's fold raises.
        return comm.allreduce(np.ones(2 + comm.rank))

    with pytest.raises(RankFailed):
        run_spmd(main, 2, deadline_s=60)


def test_one_result_not_m_contributions_crosses_the_procs_pipe():
    """What the broker sends back down a rank's pipe for an allreduce is the
    folded value; for a gather-style rendezvous it is still the slot map."""
    size = 3
    world = World(size)
    replies: dict[tuple, object] = {}

    def rank_side(rank):
        broker = _Broker(rank, None, world)
        grad = np.full(8, float(rank), dtype=np.float32)
        group = tuple(range(size))
        replies["fold", rank] = broker._dispatch(
            "world.rendezvous", ((0, "allreduce", 0, size), rank, grad, group, SUM)
        )
        replies["map", rank] = broker._dispatch(
            "world.rendezvous", ((0, "allgather", 1, size), rank, grad, group, None)
        )

    threads = [threading.Thread(target=rank_side, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    for rank in range(size):
        folded = replies["fold", rank]
        assert isinstance(folded, np.ndarray) and folded.shape == (8,)
        assert np.array_equal(folded, np.full(8, 3.0, dtype=np.float32))
        assert sorted(replies["map", rank]) == [0, 1, 2]  # M contributions


def test_a_large_allreduce_crosses_the_procs_pipe_as_handles_both_ways():
    """At the pool's smallest size class and up, the contribution goes up
    and the folded result comes down as a segment handle: the gradient's
    bytes never meet pickle."""
    from repro.mpi.pool import MIN_SIZE_CLASS, BufferPool
    from repro.mpi.procs import _Lender, _ShmArray
    from repro.mpi.shm_pool import SegmentAllocator, attach

    size = 2
    world = World(size)
    world.pool = BufferPool(SegmentAllocator(), name="world-shm")
    replies = {}

    def rank_side(rank):
        broker = _Broker(rank, None, world)
        lender = _Lender(world.pool.acquire)  # the rank's end of the pipe
        grad = np.full(MIN_SIZE_CLASS // 4, float(rank + 1), dtype=np.float32)
        sent = lender.encode(grad)
        replies[rank] = sent, broker._dispatch(
            "world.rendezvous", ((0, "allreduce", 0, size), rank, sent, (0, 1), SUM)
        )

    try:
        threads = [threading.Thread(target=rank_side, args=(r,)) for r in range(size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        for rank in range(size):
            sent, reply = replies[rank]
            assert isinstance(sent, _ShmArray) and isinstance(reply, _ShmArray)
            folded = reply.view(attach(reply.name, 0))
            assert np.array_equal(folded, np.full(MIN_SIZE_CLASS // 4, 3.0, dtype=np.float32))
            # One byte short of the threshold still pickles.
            assert isinstance(_Lender(None).encode(np.zeros(MIN_SIZE_CLASS - 1, np.uint8)), np.ndarray)
    finally:
        world.pool.shutdown()


# ------------------------------------------------- folds run in the ranks
def _rendezvous_trips(result) -> list[int]:
    return [c.get("world.rendezvous", 0) for c in result.world.rpc_counts]


def test_a_fold_on_the_launch_communicator_makes_no_round_trip():
    def main(comm):
        grad = np.full(300, float(comm.rank), dtype=np.float32)  # a lent slot
        return (
            comm.allreduce(grad)[0],
            comm.allreduce(np.array([comm.rank, 9 - comm.rank]), op=np.minimum).tolist(),
            comm.allreduce(comm.rank + 3, op=min),
        )

    result = run_spmd(main, 3, backend="procs", deadline_s=60)
    assert list(result) == [(3.0, [0, 7], 3)] * 3
    assert _rendezvous_trips(result) == [0, 0, 0]


def test_a_fold_on_a_split_communicator_stays_in_the_parent():
    def main(comm):
        sub = comm.split(comm.rank % 2)  # two rendezvous: split, split-ctx
        return sub.allreduce(comm.rank)

    result = run_spmd(main, 3, backend="procs", deadline_s=60)
    assert list(result) == [2, 1, 2]
    assert _rendezvous_trips(result) == [2 + 1] * 3


def _fold_failure_worker(comm, case):
    import os
    import signal

    if comm.rank == 1:
        time.sleep(0.3)  # the peers are waiting in the allreduce by now
        if case == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if case == "abort":
            comm.world.abort("test abort")
            return None
        if case == "deadline":
            time.sleep(2.0)  # past the world's deadline
            return None
    shape = 2 + comm.rank if case == "shape" else 300
    return comm.allreduce(np.ones(shape, dtype=np.float32))


@pytest.mark.parametrize(
    "case, raised",
    [("sigkill", PeerFailure), ("abort", MPIAbort), ("deadline", MPITimeout),
     ("shape", ValueError)],
)
def test_a_fold_in_the_ranks_fails_as_the_world_would(case, raised, own_segments):
    deadline_s = 1.0 if case == "deadline" else 60.0
    worlds = []

    def factory(size, **kwargs):
        worlds.append(World(size, **kwargs))
        return worlds[0]

    t0 = time.monotonic()
    with pytest.raises(RankFailed) as info:
        run_spmd(
            _fold_failure_worker, 3, args=(case,), backend="procs",
            deadline_s=deadline_s, world_factory=factory,
        )
    assert time.monotonic() - t0 < 30
    failures = info.value.failures
    assert all(type(exc) is raised for exc in failures.values())
    if case == "deadline":
        # The first waiter to see the deadline times out; the world is
        # aborted by then, so a later one reads MPIAbort (not reported).
        assert failures and set(failures) <= {0, 2}
    else:
        # A SIGKILLed rank is reported as its own death; its peers'
        # PeerFailures naming it are echoes.
        expected = {"shape": {0, 1, 2}, "sigkill": {1}}.get(case, {0, 2})
        assert set(failures) == expected
    if case == "sigkill":
        assert {exc.rank for exc in failures.values()} == {1}
        # What the survivors waiting in the fold raised, as the launcher
        # recorded it: PeerFailure naming rank 1 (an MPIAbort records none).
        for r in (0, 2):
            raised_here = [
                (e["error"], e["detail"]) for e in worlds[0].flight.for_rank(r).events()
                if e["kind"] == "rank.failed"
            ]
            assert len(raised_here) == 1 and raised_here[0][0] == "PeerFailure"
            assert raised_here[0][1].startswith("peer rank 1 is dead")
    if case == "abort":
        assert all("test abort" in str(exc) for exc in failures.values())
    assert own_segments() == []


def test_back_to_back_folds_never_read_a_rewritten_slot():
    """More ranks than cores, folds back to back over one lent segment per
    rank and broadcasts from it in between: every result is exact, so no
    rank rewrote its slot while a peer was still folding it."""
    size, rounds = 5, 60

    def main(comm):
        wrong = 0
        for i in range(rounds):
            mine = np.full(300, float(i * size + comm.rank))
            total = sum(i * size + r for r in range(size))
            wrong += int(not np.all(comm.allreduce(mine) == total))
            root = i % size
            got = comm.bcast(mine + 0.5 if comm.rank == root else None, root=root)
            wrong += int(not np.all(got == i * size + root + 0.5))
            wrong += int(comm.allreduce(i + comm.rank, op=max) != i + size - 1)
        return wrong

    assert list(run_spmd(main, size, backend="procs", deadline_s=120)) == [0] * size
