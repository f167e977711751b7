"""The exchange's progress engine: deliveries serviced under compute.

``communicate_chunk()`` sweeps after every ``SERVICE_EVERY``-th window:
arrived frames are verified, copied into storage slots and only then
ACKed, and an ACK hands the frame's buffer back to its sender.  Pinned
here, on both backends: the number of windows a rank has frames out of is
bounded whatever the epoch's length; a window staged early and then rolled
back leaves no staged slot; a resend that crosses its own ACK is never
read out of the recycled buffer; an abort mid-epoch settles held frames
and staged rows.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.mpi import RankFailed, run_spmd
from repro.mpi.message import Checksummed
from repro.mpi.world import World
from repro.shuffle import Scheduler, StorageArea
from repro.shuffle.scheduler import SERVICE_EVERY

from exchange_steps import exchange_epoch

BATCH = 8  # Q = 1: a window is 8 rounds


@pytest.fixture(params=["threads", "procs"])
def backend(request):
    return request.param


def _shard(comm, n_local, dim=16):
    storage = StorageArea()
    gids = range(comm.rank * n_local, (comm.rank + 1) * n_local)
    storage.add_many((np.full(dim, gid, dtype=np.float32), gid % 5, gid) for gid in gids)
    return storage


def _lockstep_epoch(comm, sched, epoch, *, windows=None):
    """One epoch the way the training loop drives it: a window per
    iteration, a collective between iterations; ``windows`` stops early."""
    sched.scheduling(epoch)
    posted = 0
    while (windows is None or posted < windows) and sched.communicate_chunk():
        posted += 1
        comm.barrier()  # the step's gradient allreduce
    return posted


def _finish(sched):
    sched.synchronize(*sched.communicate())
    sched.clean_local_storage()


def _gids(storage):
    return sorted(storage.hot_gids())


# ------------------------------------------------------------ bounded flight
def _bounded_worker(comm, n_local):
    storage = _shard(comm, n_local)
    sched = Scheduler(storage, comm, fraction=1.0, batch_size=BATCH, seed=5)
    in_use = []
    for epoch in range(2):
        assert _lockstep_epoch(comm, sched, epoch) == n_local // BATCH
        _finish(sched)
        comm.barrier()
        in_use.append(comm.pool.in_use())
        comm.barrier()
    return sched.max_windows_in_flight, in_use, _gids(storage)


@pytest.mark.parametrize("n_local", [64, 256], ids=["8-windows", "32-windows"])
def test_windows_in_flight_do_not_grow_with_the_epoch(backend, n_local):
    bound = 2 * SERVICE_EVERY + 1  # see SERVICE_EVERY
    ranks = 2
    result = run_spmd(_bounded_worker, ranks, args=(n_local,), backend=backend, deadline_s=120)
    held = [windows for windows, _in_use, _gids_ in result]
    # More windows than the bound in either epoch length, so frames that
    # stayed out until the commit would show as 8 or 32.
    assert all(SERVICE_EVERY < w <= bound for w in held), held
    for _windows, in_use, _gids_ in result:
        assert in_use == [0, 0]  # every frame went home at each commit
    # A frame per (window, peer), and a rank's frame cache holds no idle
    # buffer while it takes a new one: what the pool ever had out is the
    # bound's worth of frames per rank, not the epoch's — whatever order
    # the parent of a ``procs`` world sees the ranks' acquires in.
    stats = result.world.pool.stats()
    assert stats["high_water"] <= ranks * ranks * bound
    assert stats["adopts"] == 0
    assert sorted(g for *_x, gids in result for g in gids) == list(range(ranks * n_local))


# -------------------------------------------------- early stage, then rollback
class _LosingWorld(World):
    """Drops every data frame rank 1 sends rank 0 from window ``FIRST_LOST``
    on, whatever the attempt: rank 0's verified prefix stops there while
    rank 1 verifies — and stages — every window it is owed."""

    FIRST_LOST = 2

    def _deliver(self, msg):
        env = msg.payload
        lost = (
            isinstance(env, Checksummed) and (msg.source, msg.dest) == (1, 0)
            and env.meta[1] >= self.FIRST_LOST
        )
        if not lost:
            super()._deliver(msg)


def _rollback_worker(comm, n_local):
    storage = _shard(comm, n_local)
    before = _gids(storage)
    sched = Scheduler(
        storage, comm, fraction=1.0, batch_size=BATCH, seed=5,
        resend_timeout_s=0.02, deadline_s=0.4,
    )
    _lockstep_epoch(comm, sched, 0)
    staged_early = storage.audit()["staged"]
    _finish(sched)
    storage.audit()
    comm.barrier()
    return {
        "staged_early": staged_early,
        "slots": storage.audit(),
        "gids": _gids(storage),
        "unchanged": _gids(storage) == before,
        "committed": sched.total_sent_samples,
        "degraded": sched.degraded_epochs,
        "in_use": comm.pool.in_use(),
    }


def test_windows_staged_early_and_rolled_back_leave_no_staged_slot(backend):
    n_local = 48  # 6 windows
    result = run_spmd(
        _rollback_worker, 2, args=(n_local,), backend=backend, deadline_s=120,
        world_factory=_LosingWorld,
    )
    committed = _LosingWorld.FIRST_LOST * BATCH
    for seen in result:
        assert seen["degraded"] == 1 and seen["committed"] == committed
        assert seen["slots"]["staged"] == 0
        assert len(seen["gids"]) == n_local  # shard sizes hold
        assert not seen["unchanged"]         # and the prefix did commit
    # Rank 1 had staged windows beyond the prefix before the commit.
    assert result[1]["staged_early"] > committed
    assert sorted(result[0]["gids"] + result[1]["gids"]) == list(range(2 * n_local))
    assert all(seen["in_use"] == 0 for seen in result)
    assert result.world.pool.stats()["adopts"] == 0


# ------------------------------------------- a resend that crosses its own ACK
class _LateWorld(World):
    """Holds back the first copy of rank 1's window-0 frame to rank 0 in
    epoch 0 until rank 0 has timed out and NACKed: the resend and the
    original are both delivered, one is verified and ACKed, and the other
    stays in the mailbox while its buffer goes back to rank 1.  Under
    ``procs`` the seam runs at the sender, in rank 1's process: ``held`` is
    shared memory, so the count reaches the test."""

    held = multiprocessing.Value("i", 0)

    def _deliver(self, msg):
        env = msg.payload
        if (
            isinstance(env, Checksummed) and (msg.source, msg.dest) == (1, 0)
            and tuple(env.meta) == (0, 0, 0)
        ):
            with self.held.get_lock():
                self.held.value += 1
            timer = threading.Timer(0.15, World._deliver, args=(self, msg))
            timer.daemon = True
            timer.start()
        else:
            super()._deliver(msg)


def _crossing_worker(comm, n_local):
    storage = _shard(comm, n_local)
    sched = Scheduler(
        storage, comm, fraction=1.0, batch_size=BATCH, seed=5, resend_timeout_s=0.05,
    )
    for epoch in range(3):  # epoch 2 meets what epoch 0 left under its tags
        _lockstep_epoch(comm, sched, epoch)
        _finish(sched)
        comm.barrier()
        if epoch == 0:
            time.sleep(0.3)  # the copy that lost the race has landed by now
    hot = [
        (storage.gid_of(sid), float(sample[0]), bool((sample == sample[0]).all()))
        for sid, sample, _label in storage.items()
    ]
    return hot, sched.fault_stats()


def test_a_resend_crossing_its_ack_is_never_read_from_the_recycled_frame(backend):
    _LateWorld.held.value = 0
    result = run_spmd(
        _crossing_worker, 2, args=(32,), backend=backend, deadline_s=120,
        world_factory=_LateWorld,
    )
    assert _LateWorld.held.value == 1
    stats = [fault for _hot, fault in result]
    assert stats[0]["timeout_nacks"] >= 1 and stats[1]["resends"] >= 1
    # The copy that lost the race was met again under epoch 2's tags and
    # dropped by its (epoch, window) — never checksummed, never decoded: the
    # bytes it points at are some later window's by then.
    assert stats[0]["stale_discards"] >= 1
    assert all(fault["crc_rejects"] == 0 for fault in stats)
    hot = [entry for rank_hot, _fault in result for entry in rank_hot]
    assert sorted(gid for gid, _v, _whole in hot) == list(range(64))
    assert all(value == gid and whole for gid, value, whole in hot)
    assert result.world.pool.stats()["adopts"] == 0


# ------------------------------------------- one protocol: checker and live
def _release_worker(comm):
    sched = Scheduler(_shard(comm, BATCH), comm, fraction=1.0, batch_size=BATCH, seed=5)
    exchange_epoch(sched, 0)


def test_the_model_checkers_mutants_break_the_live_exchange(monkeypatch):
    """The model checker explores the engine class the scheduler runs, so
    patching that class with a checker mutant breaks the live exchange."""
    import repro.shuffle.scheduler as scheduler_mod
    from repro.analysis.protocol import mutant_engine

    # Without the (epoch, window) check, the copy that lost the race to its
    # resend is no longer discarded as stale when epoch 2 meets it.
    monkeypatch.setattr(scheduler_mod, "ExchangeEngine", mutant_engine("skip_stale_check"))
    _LateWorld.held.value = 0
    result = run_spmd(
        _crossing_worker, 2, args=(32,), deadline_s=120, world_factory=_LateWorld
    )
    assert _LateWorld.held.value == 1
    assert not result[0][1]["stale_discards"] >= 1

    # A frame released right after its isend comes back on its ACK all the
    # same, and the commit releases it a second time: the pool refuses.  On
    # two ranks, since a lone rank keeps every round and sends no frame.
    monkeypatch.setattr(scheduler_mod, "ExchangeEngine", mutant_engine("release_before_ack"))
    with pytest.raises(RankFailed, match="already released"):
        run_spmd(_release_worker, 2, deadline_s=60)


# ----------------------------------------------------------- abort mid-epoch
def _abort_worker(comm, n_local):
    storage = _shard(comm, n_local)
    before = _gids(storage)
    sched = Scheduler(storage, comm, fraction=1.0, batch_size=BATCH, seed=5)
    _lockstep_epoch(comm, sched, 0, windows=6)
    seen = {
        "back": sum(fr.state == "acked" for fr in sched.engine.sends.values()),
        "out": len(sched.engine.unacked),
        "staged": storage.audit()["staged"],
    }
    comm.barrier()
    sched.abort_exchange()
    storage.audit()
    comm.barrier()
    seen.update(
        slots=storage.audit(), unchanged=_gids(storage) == before,
        pool=comm.pool.stats(),
    )
    exchange_epoch(sched, 1)  # the scheduler is usable again
    return seen


def test_abort_mid_epoch_settles_held_frames_and_staged_rows(backend):
    result = run_spmd(_abort_worker, 2, args=(64,), backend=backend, deadline_s=120)
    for seen in result:
        # Mid-epoch there was something of each kind to settle: frames that
        # came back on ACK, frames still out, staged rows.
        assert seen["back"] > 0 and seen["out"] > 0 and seen["staged"] > 0
        # The staged rows gave their slots back: the live slots are the
        # shard's, nothing that arrived.
        assert seen["slots"]["staged"] == 0 and seen["slots"]["live"] == 64
        assert seen["unchanged"]
        pool = seen["pool"]
        # Frames still out are adopted (their receiver may yet read them),
        # the ones that had come back are released: balanced or adopted.
        assert pool["adopts"] > 0 and pool["releases"] > 0
        assert pool["in_use"] == 0
