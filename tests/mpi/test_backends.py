"""Backend name resolution, the procs backend's run_spmd contract, and the
RPC table that keeps its two ends in step."""

import numpy as np
import pytest

from repro.mpi import (
    DEFAULT_BACKEND,
    REPRO_BACKEND_ENV,
    World,
    resolve_backend_name,
    run_spmd,
)


def test_both_backends_registered():
    assert [resolve_backend_name(n) for n in ("threads", "procs")] == ["threads", "procs"]


def test_resolution_order(monkeypatch):
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    assert resolve_backend_name(None) == DEFAULT_BACKEND
    monkeypatch.setenv(REPRO_BACKEND_ENV, "procs")
    assert resolve_backend_name(None) == "procs"
    # An explicit choice beats the environment.
    assert resolve_backend_name("threads") == "threads"


def test_unknown_backend_rejected(monkeypatch):
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend_name("smoke-signals")
    monkeypatch.setenv(REPRO_BACKEND_ENV, "carrier-pigeon")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend_name(None)


def test_procs_collectives_match_threads():
    def worker(comm):
        total = comm.allreduce(comm.rank)
        gathered = comm.allgather(comm.rank * 10)
        arr = comm.bcast(np.arange(4, dtype=np.float32) if comm.rank == 0 else None)
        return total, gathered, arr.tolist()

    by_backend = {}
    for backend in ("threads", "procs"):
        results = list(run_spmd(worker, 2, backend=backend))
        by_backend[backend] = results
        assert results == [(1, [0, 10], [0.0, 1.0, 2.0, 3.0])] * 2
    assert by_backend["threads"] == by_backend["procs"]


def test_procs_p2p_roundtrip():
    def worker(comm):
        if comm.rank == 0:
            comm.send(np.full((8,), 7, dtype=np.int64), dest=1, tag=3)
            return None
        msg = comm.recv(source=0, tag=3)
        return int(msg.sum())

    results = list(run_spmd(worker, 2, backend="procs"))
    assert results == [None, 56]


def test_procs_env_default(monkeypatch):
    monkeypatch.setenv(REPRO_BACKEND_ENV, "procs")

    def worker(comm):
        import os

        # Under procs every rank is a real process distinct from the parent.
        return os.getpid()

    result = run_spmd(worker, 2)
    pids = set(result)
    import os

    assert len(pids) == 2 and os.getpid() not in pids


def test_procs_world_factory(monkeypatch):
    created = []

    def factory(size, copy_on_send, deadline_s):
        world = World(size, copy_on_send=copy_on_send, deadline_s=deadline_s)
        created.append(world)
        return world

    def worker(comm):
        return comm.allreduce(1)

    result = run_spmd(worker, 2, backend="procs", world_factory=factory)
    assert list(result) == [2, 2]
    assert created and result.world is created[0]


# ------------------------------------------------------------ the RPC table
def test_every_rpc_row_resolves_on_the_real_objects():
    """A row names something a real World / BufferPool / FlightLog /
    TelemetryAggregator / ChaosEngine has, of the kind the row says."""
    from repro.faults import ChaosEngine, ChaosWorld
    from repro.mpi.procs import _RPC, _target

    world = ChaosWorld(2, chaos=ChaosEngine("", seed=0))
    for wire, op in _RPC.items():
        target, rest = _target(world, op, (0, "rest"))
        assert rest == (("rest",) if op.target in ("mailbox", "recorder") else (0, "rest"))
        assert hasattr(target, op.name), f"{wire}: no {op.name} on {type(target).__name__}"
        assert callable(getattr(target, op.name)) == (op.kind != "get"), wire


# What Communicator, RecvRequest, Scheduler, repro.elastic and
# obs.telemetry.aggregate read off ``comm.world`` (the names the rank-side
# facade exposed before it was generated from the table).
_WORLD_SURFACE = (
    "post", "take_blocking", "check_alive", "count_copy", "rendezvous", "abort",
    "mark_dead", "dead_ranks", "epitaphs", "flush_mailbox",
    "announce_crash", "regroup_rendezvous", "request_join",
    "await_admission", "aborted", "abort_reason", "crashed",
    "crash_reason", "total_bytes_copied",
    "size", "copy_on_send", "pool", "flight", "telemetry", "mailboxes",
)
_PROXY_SURFACE = {
    "pool": ("acquire", "release", "adopt_if_in_use", "stats",
             "in_use", "assert_balanced", "name"),
    "flight": ("detail", "for_rank", "dump"),
    "telemetry": ("ingest",),
}


def _surface_worker(comm):
    world = comm.world
    missing = [n for n in _WORLD_SURFACE if not hasattr(world, n)]
    for attr, names in _PROXY_SURFACE.items():
        missing += [f"{attr}.{n}" for n in names if not hasattr(getattr(world, attr), n)]
    box = world.mailboxes[comm.rank]
    missing += [f"mailbox.{n}" for n in ("peek", "try_take") if not hasattr(box, n)]
    # The traced benchmark pass wraps these two with setattr on the class.
    class_level = (
        "acquire" in vars(type(comm.pool)), "record" in vars(type(comm.flight))
    )
    # A few of the generated forwarders, driven for real.
    buf = comm.pool.acquire(100)
    seen = (
        world.aborted, world.crash_reason, dict(world.epitaphs),
        comm.rank in world.dead_ranks(), world.pool.in_use() >= 1,
        comm.pool.adopt_if_in_use(buf), comm.pool.adopt_if_in_use(buf),
    )
    # A retire is a cast: the strict one fails in the parent, and the rank's
    # next round trip raises it.
    buf.release()
    with pytest.raises(RuntimeError, match="already adopted"):
        comm.pool.in_use()
    # A released id has left the parent's ledger: retiring it again is still
    # refused (strict) or lost quietly (idempotent), as in-process.
    gone = comm.pool.acquire(100)
    gone.release()
    gone.release()
    with pytest.raises(RuntimeError, match="already released"):
        comm.pool.in_use()
    assert comm.pool.adopt_if_in_use(gone) is False
    comm.barrier()
    return missing, hasattr(world, "chaos"), class_level, seen


def test_rank_side_facade_keeps_the_world_surface():
    for missing, has_chaos, class_level, seen in run_spmd(_surface_worker, 2, backend="procs"):
        assert missing == []
        assert has_chaos is False  # absent on a plain world, by design
        assert class_level == (True, True)
        assert seen == (False, None, {}, False, True, True, False)


def test_threads_pool_and_flight_are_the_classes_the_benchmark_wraps():
    from repro.mpi.pool import BufferPool
    from repro.obs.telemetry import FlightRecorder

    def worker(comm):
        return type(comm.pool) is BufferPool, type(comm.flight) is FlightRecorder

    assert "acquire" in vars(BufferPool) and "record" in vars(FlightRecorder)
    assert list(run_spmd(worker, 2)) == [(True, True)] * 2


def test_unknown_rpc_is_refused_by_the_broker():
    def worker(comm):
        with pytest.raises(ValueError, match="unknown backend RPC 'world._coll_slots'"):
            comm.world._rpc.call("world._coll_slots")
        with pytest.raises(ValueError, match="unknown backend RPC"):
            comm.world._rpc.call("pool.shutdown")
        return comm.allreduce(1)  # the broker is still serving

    assert list(run_spmd(worker, 2, backend="procs")) == [2, 2]


# ------------------------------------------------- casts and deferred errors
def _cast_rows():
    from repro.mpi.procs import _RPC

    return sorted(wire for wire, op in _RPC.items() if op.kind == "cast")


def test_the_rows_that_return_nothing_are_casts():
    assert _cast_rows() == [
        "pool.release", "recorder.append", "world.count_copy",
        "world.post",
    ]


def test_a_failed_cast_is_raised_by_the_next_round_trip_and_only_once():
    def worker(comm, wires):
        rpc = comm.world._rpc
        for wire in wires:
            # No row takes this argument list: the parent half raises.
            rpc.cast(wire, "not", "what", "the", "row", "takes", None, None)
            rpc.cast("world.count_copy", comm.rank, 1)  # a good cast after it
            with pytest.raises((TypeError, ValueError, AttributeError, KeyError)):
                comm.world.dead_ranks()  # raised in place of running...
            assert 0 not in comm.world.dead_ranks()  # ...once
        return comm.allreduce(1)  # and the broker is still serving

    result = run_spmd(worker, 2, args=(_cast_rows(),), backend="procs")
    assert list(result) == [2, 2]
    # The good casts behind each failed one were all applied.
    assert result.world.copies == [len(_cast_rows())] * 2


def test_a_failed_cast_with_no_later_call_fails_the_ranks_outcome():
    from repro.mpi import RankFailed

    def worker(comm):
        comm.barrier()
        if comm.rank == 1:
            buf = comm.pool.acquire(64)
            buf.release()
            buf.release()  # strict double release, and nothing after it
        return comm.rank

    with pytest.raises(RankFailed) as err:
        run_spmd(worker, 2, backend="procs")
    assert set(err.value.failures) == {1}
    assert "already released" in str(err.value.failures[1])


def test_a_post_into_an_aborted_world_surfaces_one_call_later():
    from repro.mpi import MPIAbort
    from repro.mpi.message import Message

    def worker(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.world.abort("test abort")
            comm.isend("late", dest=1, tag=1)  # a cast: returns
            with pytest.raises(MPIAbort, match="test abort"):
                comm.pool.in_use()
            # The destination range is still checked at the rank, at once.
            with pytest.raises(ValueError, match=r"rank 5 out of range \[0,2\)"):
                comm.world.post(Message(source=0, dest=5, tag=1, payload=None))
        return comm.rank

    result = run_spmd(worker, 2, backend="procs")
    assert list(result) == [0, 1]
    assert result.world.messages_sent == [0, 0]  # the late post never counted


def test_casts_and_calls_reach_the_parent_in_program_order():
    def worker(comm):
        peer = 1 - comm.rank
        for i in range(5):
            comm.world.count_copy(comm.rank, 10 ** i)  # queued ...
            comm.isend(i, dest=peer, tag=2)            # ... flushed with the post
            # The call behind them sees both applied.
            assert comm.world.total_bytes_copied() >= sum(10 ** k for k in range(i + 1))
        got = [comm.recv(source=peer, tag=2) for _ in range(5)]
        comm.world.count_copy(comm.rank, 7)  # rides the exit record
        return got

    result = run_spmd(worker, 2, backend="procs")
    assert list(result) == [[0, 1, 2, 3, 4]] * 2
    assert result.world.bytes_copied == [11118, 11118]
    for counts in result.world.rpc_counts:
        assert counts["world.post"] == [0, 5]
        assert counts["world.count_copy"] == [0, 6]
        assert counts["world.take_blocking"] == [5, 0]


# --------------------------------------------------- ndarrays as handles
def _large_array_worker(comm):
    from repro.mpi.pool import MIN_SIZE_CLASS

    n = MIN_SIZE_CLASS // 4  # float32: exactly the threshold
    mine = np.random.default_rng(comm.rank).normal(size=(n // 8, 8)).astype(np.float32)
    grad = mine.copy()
    total = comm.allreduce(grad)
    at_root = comm.reduce(mine, op=np.maximum, root=1)
    shared = comm.bcast(mine if comm.rank == 0 else None, root=0)
    small = comm.allreduce(mine[0, :3])  # under the threshold: pickled
    writeable = (total.flags.writeable, shared.flags.writeable or comm.rank == 0)
    grad += 1.0  # the contribution is the rank's own again
    again = comm.allreduce(grad)  # and the lent segments are reused
    return total, at_root, shared, small, writeable, again, comm.pool.in_use()


@pytest.mark.parametrize("copy_on_send", [True, False])
def test_large_arrays_cross_the_pipe_as_handles_bit_identically(copy_on_send):
    import os

    from repro.mpi.shm_pool import SEGMENT_PREFIX, live_segments

    runs = {
        backend: run_spmd(
            _large_array_worker, 3, backend=backend, copy_on_send=copy_on_send
        )
        for backend in ("threads", "procs")
    }
    for mine, ref in zip(runs["procs"], runs["threads"]):
        for got, want in zip(mine[:4], ref[:4]):
            assert (got is None and want is None) or (
                got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes()
            )
        assert mine[5].tobytes() == ref[5].tobytes()
        # Private (a copying world) or read-only (a zero-copy one), as
        # ``_take_reduced`` promises on either backend.
        assert mine[4] == ref[4] == (copy_on_send, True)
    world = runs["procs"].world
    # One lent segment per rank and direction, reused call after call (the
    # folds run in the ranks, each over the segment its rank lends; the
    # bcast's reply comes back in the one each broker lends) ...
    assert {r[6] for r in runs["procs"]} <= set(range(1, 7))
    assert world.pool.stats()["acquires"] == 6
    # ... handed back when the ranks ended.
    world.pool.assert_balanced()
    mine = f"{SEGMENT_PREFIX}{os.getpid()}-"
    assert [name for name in live_segments() if name.startswith(mine)] == []
    assert runs["procs"].world.bytes_copied == runs["threads"].world.bytes_copied


# ------------------------------------------------------------ batched take
@pytest.mark.parametrize("seed", range(8))
def test_try_take_many_is_try_take_want_by_want(seed):
    """Property, over seeded random mailboxes and want lists: the same
    messages, in the same send order, wildcards included — and the same
    mailbox left behind."""
    import random

    from repro.mpi.message import ANY_SOURCE, ANY_TAG, Message
    from repro.mpi.world import _Mailbox

    rng = random.Random(seed)
    for _case in range(50):
        messages = [
            Message(source=rng.randrange(3), dest=0, tag=rng.randrange(3), payload=i)
            for i in range(rng.randrange(13))
        ]
        rng.shuffle(messages)  # deposit order is not send (seq) order
        wants = [
            (rng.choice([ANY_SOURCE, 0, 1, 2]), rng.choice([ANY_TAG, 0, 1, 2]),
             rng.random() < 0.5)
            for _ in range(rng.randrange(7))
        ]
        batched, single = _Mailbox(), _Mailbox()
        for msg in messages:
            batched.deposit(msg)
            single.deposit(msg)
        expected = []
        for source, tag, every in wants:
            got = []
            while (msg := single.try_take(source, tag)) is not None:
                got.append(msg)
                if not every:
                    break
            expected.append(got)
        assert batched.try_take_many(wants) == expected
        assert batched.messages == single.messages


def test_a_poll_of_an_aborted_world_raises_on_either_backend():
    from repro.mpi import MPIAbort

    def worker(comm):
        req = comm.irecv(source=comm.rank, tag=4)
        assert comm.testsome([req], drain_tag=5) == [] and not req.completed
        comm.send("data", dest=comm.rank, tag=4)
        comm.send("ctl-a", dest=comm.rank, tag=5)
        comm.send("ctl-b", dest=comm.rank, tag=5)
        assert comm.testsome([req], drain_tag=5) == [
            ("ctl-a", comm.rank), ("ctl-b", comm.rank)
        ]
        assert req.completed and req.wait() == "data"
        comm.barrier()
        comm.world.abort("poll this")
        late = comm.irecv(source=comm.rank, tag=6)
        for poll in (lambda: comm.testsome([], drain_tag=5), comm.iprobe, late.test):
            with pytest.raises(MPIAbort, match="poll this"):
                poll()
        late.cancel()
        return True

    for backend in ("threads", "procs"):
        assert list(run_spmd(worker, 2, backend=backend)) == [True, True]
