"""Backend name resolution, the procs backend's run_spmd contract, and the
RPC table that keeps its two ends in step."""

import numpy as np
import pytest

from repro.mpi import (
    DEFAULT_BACKEND,
    World,
    resolve_backend_name,
    run_spmd,
)


def test_both_backends_registered():
    assert [resolve_backend_name(n) for n in ("threads", "procs")] == ["threads", "procs"]


def test_resolution_order(monkeypatch):
    assert resolve_backend_name(None) == DEFAULT_BACKEND == "threads"
    assert resolve_backend_name("procs") == "procs"
    # The environment chooses nothing: only the argument names a backend.
    monkeypatch.setenv("REPRO_BACKEND", "procs")
    assert resolve_backend_name(None) == "threads"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend_name("smoke-signals")
    with pytest.raises(ValueError, match="available: procs, threads"):
        run_spmd(lambda comm: None, 1, backend="carrier-pigeon")


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


def test_procs_ranks_are_processes_distinct_from_the_parent():
    def worker(comm):
        import os

        return os.getpid()

    result = run_spmd(worker, 2, backend="procs")
    pids = set(result)
    import os

    assert len(pids) == 2 and os.getpid() not in pids


def test_procs_world_factory(monkeypatch):
    created = []

    def factory(size, deadline_s):
        world = World(size, deadline_s=deadline_s)
        created.append(world)
        return world

    def worker(comm):
        return comm.allreduce(1)

    result = run_spmd(worker, 2, backend="procs", world_factory=factory)
    assert list(result) == [2, 2]
    assert created and result.world is created[0]


# ------------------------------------------------------------ the RPC table
def test_every_rpc_row_resolves_on_the_real_objects():
    """Every row is a round trip: a call or a get.  A row names something a
    real World / FlightLog / TelemetryAggregator / ChaosEngine has, of the
    kind the row says; a row written by hand has its parent half on the
    broker, and ``flight.collect`` (the broker drains the rank's flight
    ring) is the one row with nothing behind it on the world."""
    from repro.faults import ChaosEngine, ChaosWorld
    from repro.mpi.procs import _HAND, _RPC, _Broker, _target

    world = ChaosWorld(2, chaos=ChaosEngine("", seed=0))
    for wire, op in _RPC.items():
        assert op.kind in ("call", "get"), wire
        if op.codec == _HAND:
            assert callable(getattr(_Broker, f"_{op.target}_{op.name}")), wire
            if wire == "flight.collect":
                continue
        target = _target(world, op)
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
    "size", "pool", "flight", "telemetry", "mailboxes",
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
    # The pool is the rank's own: a strict retire of an adopted buffer
    # raises where it is called, as in-process.
    with pytest.raises(RuntimeError, match="already adopted"):
        buf.release()
    # A released buffer is refused again (strict) or lost quietly
    # (idempotent).
    gone = comm.pool.acquire(100)
    gone.release()
    with pytest.raises(RuntimeError, match="already released"):
        gone.release()
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


def test_a_strict_double_release_fails_the_ranks_outcome():
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


def test_a_post_into_an_aborted_world_raises_at_once():
    from repro.mpi import MPIAbort
    from repro.mpi.message import Message

    def worker(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.world.abort("test abort")
            # The abort word is on the board: the post reads it, and asks
            # the parent only for the reason.
            with pytest.raises(MPIAbort, match="test abort"):
                comm.isend("late", dest=1, tag=1)
            # The destination range is checked at the rank too.
            with pytest.raises(ValueError, match=r"rank 5 out of range \[0,2\)"):
                comm.world.post(Message(source=0, dest=5, tag=1, payload=None))
        return comm.rank

    result = run_spmd(worker, 2, backend="procs")
    assert list(result) == [0, 1]
    assert result.world.messages_sent == [0, 0]  # the late post never counted


def test_flight_events_and_calls_reach_the_parent_in_program_order():
    """A call sees every flight event the rank recorded before it: the
    events wait on the rank's flight ring, and a dump drains the rings
    first.  What does not cross the pipe — p2p, over the rank-to-rank
    rings — keeps one sender's send order, and the copy counters on the
    board reach the parent however the rank ends."""

    def worker(comm):
        peer = 1 - comm.rank
        for i in range(5):
            comm.flight.record("step", i=i)     # on the flight ring ...
            comm.isend(i, dest=peer, tag=2)     # ... beside a p2p ring entry
            comm.world.count_copy(comm.rank, 10 ** i)
            # The call behind them sees the events.
            dump = comm.world.flight.dump(f"at {i} on {comm.rank}")
            steps = [e["i"] for e in dump["ranks"][str(comm.rank)] if e["kind"] == "step"]
            assert steps == list(range(i + 1))
        got = [comm.recv(source=peer, tag=2) for _ in range(5)]
        comm.world.count_copy(comm.rank, 7)
        return got

    result = run_spmd(worker, 2, backend="procs")
    assert list(result) == [[0, 1, 2, 3, 4]] * 2
    assert result.world.bytes_copied == [11118, 11118]
    assert result.world.messages_sent == [5, 5]
    # The dumps are the only round trips: no flight event crossed the pipe.
    assert result.world.rpc_counts == [{"flight.dump": 5}] * 2


def _rejoin_worker(comm):
    import time

    from repro.mpi.message import ANY_TAG

    if comm.rank == 0:
        comm.send("stale", dest=1, tag=5)  # to rank 1's first incarnation
        comm.barrier()
        while 1 not in comm.dead_peers():
            time.sleep(0.01)
        new = comm.shrink().expand([1])
        new.send("fresh", dest=new.group.index(1), tag=5)
        return None
    comm.barrier()
    comm.world.mark_dead(1, "test death")
    new = comm.rejoin()
    # A wildcard tag would match the old context's message too: only the
    # flush at the regroup keeps it from this incarnation.
    return new.recv(source=new.group.index(0), tag=ANY_TAG)


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_a_rejoiner_drops_what_its_previous_incarnation_was_sent(backend):
    """The regroup that revives a rank flushes its mailbox; under ``procs``
    it cuts the rank's inbound rings there, and the rank skips to the cut
    when its admission returns."""
    assert list(run_spmd(_rejoin_worker, 2, backend=backend, deadline_s=60)) == [None, "fresh"]


def _flood_worker(comm, count):
    peer = 1 - comm.rank
    big = np.arange(5000, dtype=np.float32) + comm.rank  # 20 KB: spilled
    for i in range(count):
        comm.send((i, bytes(600)), dest=peer, tag=1)
    comm.send(big, dest=peer, tag=2)
    got = [comm.recv(source=peer, tag=1)[0] for _ in range(count)]
    return got == list(range(count)), comm.recv(source=peer, tag=2).tobytes()


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_a_full_ring_waits_for_its_reader_and_a_big_message_spills(backend):
    """Both ranks send three rings' worth before either receives: under
    ``procs`` a sender that finds its ring full drains its own rings while
    it waits, so neither blocks the other; an entry above the inline size
    travels in a segment of its own, which its reader unlinks."""
    result = run_spmd(_flood_worker, 2, args=(300,), backend=backend, deadline_s=60)
    for rank, (in_order, big) in enumerate(result):
        assert in_order
        assert big == (np.arange(5000, dtype=np.float32) + (1 - rank)).tobytes()


def _unread_worker(comm, count):
    if comm.rank == 1:
        for i in range(count):  # three rings' worth nobody will read
            comm.send((i, bytes(600)), dest=0, tag=1)
    return comm.rank


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_sends_to_a_rank_that_has_ended_do_not_block(backend):
    """Under ``threads`` they sit unread in its mailbox; under ``procs``,
    once its ring is full, they are dropped: the rank's pipe has ended."""
    assert list(run_spmd(_unread_worker, 2, args=(300,), backend=backend, deadline_s=60)) == [0, 1]


# --------------------------------------------------- ndarrays as handles
def _edit_what_rank_0_sent(comm):
    """Rank 1 edits, in place, the array rank 0 sent it by every route."""
    mine = np.zeros(4)
    got = {
        "bcast": comm.bcast(mine if comm.rank == 0 else None),
        "scatter": comm.scatter([mine, mine] if comm.rank == 0 else None),
        "alltoall": comm.alltoall([mine, mine])[0],
        "allgather": comm.allgather(mine)[0],
        "gather": (comm.gather(mine, root=1) or [None])[0],
    }
    own = comm.allgather(mine)[comm.rank]  # a rank's own item stays writeable
    if comm.rank == 0:
        comm.send(mine, dest=1, tag=1)
        comm.send(mine, dest=1, tag=2)
        comm.barrier()
        return mine.tolist(), mine.flags.writeable
    got["recv"] = comm.recv(source=0, tag=1)
    got["irecv"] = comm.irecv(source=0, tag=2).wait()
    refused = []
    for route, arr in got.items():
        try:
            arr += 5
        except ValueError:
            refused.append(route)
    comm.barrier()
    return refused, own.flags.writeable


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_a_rank_never_holds_a_writeable_alias_of_a_peers_array(backend):
    """Under ``threads`` the receiver holds the sender's very array: it gets
    a read-only view, and the sender's own flags stay as they were."""
    sender, receiver = run_spmd(_edit_what_rank_0_sent, 2, backend=backend)
    assert sender == ([0.0] * 4, True)
    routes = ["bcast", "scatter", "alltoall", "allgather", "gather", "recv", "irecv"]
    assert receiver == (routes, True)


def _large_array_worker(comm):
    from repro.mpi.pool import MIN_SIZE_CLASS

    n = MIN_SIZE_CLASS // 4  # float32: exactly the threshold
    mine = np.random.default_rng(comm.rank).normal(size=(n // 8, 8)).astype(np.float32)
    grad = mine.copy()
    total = comm.allreduce(grad)
    at_root = comm.reduce(mine, op=np.maximum, root=1)
    shared = comm.bcast(mine if comm.rank == 0 else None, root=0)
    small = comm.allreduce(mine[0, :3])  # under the threshold: pickled
    # A bcast hands root's array back to root as it was, read-only elsewhere.
    writeable = (total.flags.writeable, shared.flags.writeable == (comm.rank == 0))
    grad += 1.0  # the contribution is the rank's own again
    again = comm.allreduce(grad)  # and the lent segments are reused
    return total, at_root, shared, small, writeable, again, comm.pool.in_use()


def test_large_arrays_cross_the_pipe_as_handles_bit_identically():
    import os

    from repro.mpi.shm_pool import SEGMENT_PREFIX, live_segments

    runs = {
        backend: run_spmd(_large_array_worker, 3, backend=backend)
        for backend in ("threads", "procs")
    }
    for mine, ref in zip(runs["procs"], runs["threads"]):
        for got, want in zip(mine[:4], ref[:4]):
            assert (got is None and want is None) or (
                got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes()
            )
        assert mine[5].tobytes() == ref[5].tobytes()
        # Read-only, as ``_take_reduced`` promises on either backend.
        assert mine[4] == ref[4] == (False, True)
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
