"""Backend name resolution, the procs backend's run_spmd contract, and the
RPC table that keeps its two ends in step."""

import numpy as np
import pytest

from repro.mpi import (
    DEFAULT_BACKEND,
    REPRO_BACKEND_ENV,
    World,
    available_backends,
    resolve_backend_name,
    run_spmd,
)


def test_both_backends_registered():
    names = available_backends()
    assert "threads" in names and "procs" in names


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
    "mark_dead", "dead_ranks", "is_dead", "epitaphs", "flush_mailbox",
    "announce_crash", "shrink_rendezvous", "expand_rendezvous", "request_join",
    "join_requests", "await_admission", "aborted", "abort_reason", "crashed",
    "crash_reason", "total_bytes_sent", "total_bytes_copied",
    "size", "copy_on_send", "pool", "flight", "telemetry", "mailboxes",
)
_PROXY_SURFACE = {
    "pool": ("acquire", "release", "adopt", "adopt_if_in_use", "stats",
             "in_use", "free_buffers", "assert_balanced", "name"),
    "flight": ("enabled", "set_enabled", "for_rank", "dump"),
    "telemetry": ("ingest",),
}


def _surface_worker(comm):
    world = comm.world
    missing = [n for n in _WORLD_SURFACE if not hasattr(world, n)]
    for attr, names in _PROXY_SURFACE.items():
        missing += [f"{attr}.{n}" for n in names if not hasattr(getattr(world, attr), n)]
    box = world.mailboxes[comm.rank]
    missing += [f"mailbox.{n}" for n in ("peek", "try_take", "cond") if not hasattr(box, n)]
    # The traced benchmark pass wraps these two with setattr on the class.
    class_level = (
        "acquire" in vars(type(comm.pool)), "record" in vars(type(comm.flight))
    )
    # A few of the generated forwarders, driven for real.
    buf = comm.pool.acquire(100)
    seen = (
        world.aborted, world.crash_reason, dict(world.epitaphs),
        world.is_dead(comm.rank), world.pool.in_use() >= 1,
        comm.pool.adopt_if_in_use(buf), comm.pool.adopt_if_in_use(buf),
    )
    with pytest.raises(RuntimeError, match="already adopted"):
        buf.release()
    # A released id has left the parent's ledger: retiring it again is still
    # refused (strict) or lost quietly (idempotent), as in-process.
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
