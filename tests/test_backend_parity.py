"""Backend parity: threads and procs must be observationally identical.

A representative slice of the scheduler / elastic / chaos behavior runs
under both backends through one parametrized fixture; every numerical
outcome must match the threads reference bit-for-bit, because the
backends differ only in where ranks execute, never in what they compute.
The abort test additionally pins the shared-memory cleanup contract: a
rank failing mid-run must not leave ``/dev/shm`` segments behind.
"""

import numpy as np
import pytest

from repro.mpi import PeerFailure, RankDied, RankFailed, run_spmd
from repro.shuffle import Scheduler, StorageArea


@pytest.fixture(params=["threads", "procs"])
def backend(request):
    """Run the test under each communicator backend."""
    return request.param


# Threads-reference results, computed once per workload and compared
# against whatever the parametrized backend produced.
_REFERENCE: dict = {}


def _once(key, thunk):
    if key not in _REFERENCE:
        _REFERENCE[key] = thunk()
    return _REFERENCE[key]


# ---------------------------------------------------------------- the oracle
# One differential test for the exchange: whatever the backend, the world
# size, the fault profile or the plan granularity, every rank must end each
# epoch holding exactly the samples ``reconstruct_ledger`` — a
# communicator-free replay of Algorithm 1 that knows nothing of windows or
# frames — says it holds, with the source dataset's bytes.
_ORACLE_N_LOCAL = 12
_ORACLE_Q = 0.5
_ORACLE_SEED = 7
_ORACLE_EPOCHS = 3
_ORACLE_X = np.random.default_rng(0).random((5 * _ORACLE_N_LOCAL, 8, 8)).astype(
    np.float32
)
_ORACLE_Y = np.arange(len(_ORACLE_X)) % 5


def _oracle_shards(ranks):
    return [
        list(range(r * _ORACLE_N_LOCAL, (r + 1) * _ORACLE_N_LOCAL))
        for r in range(ranks)
    ]


def _oracle_worker(comm, granularity, batch_size):
    storage = StorageArea()
    for gid in _oracle_shards(comm.size)[comm.rank]:
        storage.add(_ORACLE_X[gid], int(_ORACLE_Y[gid]), gid=gid)
    sched = Scheduler(
        storage, comm, fraction=_ORACLE_Q, seed=_ORACLE_SEED,
        granularity=granularity, resend_timeout_s=0.05, batch_size=batch_size,
    )
    after_epoch = []
    for epoch in range(_ORACLE_EPOCHS):
        sched.scheduling(epoch)
        while sched.communicate_chunk():  # a window at a time, as training does
            pass
        sched.synchronize()
        sched.clean_local_storage()
        after_epoch.append(
            [
                (sid, storage.gid_of(sid), int(label), np.asarray(sample).tobytes())
                for sid, sample, label in storage.items()
            ]
        )
    return after_epoch


def _check_against_oracle(backend, profile, granularity, ranks, batch_size=32):
    from repro.elastic import reconstruct_ledger
    from repro.faults import ChaosEngine, ChaosWorld

    engine = ChaosEngine(profile, seed=1)

    def chaos_world(size, **kwargs):
        return ChaosWorld(size, chaos=engine, **kwargs)

    result = run_spmd(
        _oracle_worker, ranks, args=(granularity, batch_size), backend=backend,
        deadline_s=120, world_factory=chaos_world if profile else None,
    )
    if profile:
        assert sum(engine.snapshot().values()) > 0, "chaos injected nothing"
    shards = _oracle_shards(ranks)
    for epochs in range(1, _ORACLE_EPOCHS + 1):
        oracle = reconstruct_ledger(
            _ORACLE_SEED, shards, epochs, _ORACLE_Q, granularity=granularity,
        )
        for rank, after_epoch in enumerate(result):
            hot = after_epoch[epochs - 1]
            assert sorted(gid for _sid, gid, _, _ in hot) == oracle.held_by(rank)
            for _sid, gid, label, raw in hot:
                assert label == _ORACLE_Y[gid]
                assert raw == _ORACLE_X[gid].tobytes()
    return list(result)


_CHAOS = pytest.mark.parametrize(
    "profile", ["", "corrupt:p=0.1;drop:p=0.05;dup:p=0.05"], ids=["clean", "chaos"]
)


@pytest.mark.parametrize("granularity", [1, 4])
@_CHAOS
def test_exchange_matches_oracle(backend, profile, granularity, monkeypatch):
    """... and the servicing schedule is not observable: swept after every
    window or only in ``synchronize()`` (six one-round windows an epoch), a
    rank ends every epoch with the same samples under the same ids."""
    import repro.shuffle.scheduler as scheduler_mod

    _check_against_oracle(backend, profile, granularity, ranks=3)
    shards = []
    for every in (1, 10**6):
        monkeypatch.setattr(scheduler_mod, "SERVICE_EVERY", every)
        shards.append(
            _check_against_oracle(backend, profile, granularity, ranks=3, batch_size=2)
        )
    assert shards[0] == shards[1]


@pytest.mark.parametrize("ranks", [2, 5])
@pytest.mark.parametrize("granularity", [1, 4])
@_CHAOS
def test_exchange_matches_oracle_at_other_world_sizes(
    backend, profile, granularity, ranks
):
    """M=2: every window is two fat frames (one to self); M=5: the epoch's
    rounds spread so thin that some (window, peer) pairs have no frame."""
    _check_against_oracle(backend, profile, granularity, ranks)


def test_oracle_grid_covers_an_empty_window_peer_pair():
    """At M=5 the 6 rounds of an epoch fall in one Q*b window, so some rank
    draws no round for some peer: that (window, peer) pair has no frame, on
    either side, and the oracle test above still holds."""
    from repro.shuffle.exchange_plan import ExchangePlan

    plan = ExchangePlan.for_epoch(seed=_ORACLE_SEED, epoch=0, size=5, rounds=6)
    assert any(
        set(plan.sends_for(rank).tolist()) != set(range(5)) for rank in range(5)
    )


def _miscounting_world(size, **kwargs):
    """A world that re-seals the first data frame with its last sample cut
    off: bytes intact, CRC valid, sample count disagreeing with the plan."""
    from repro.mpi.codec import pack_samples, unpack_samples
    from repro.mpi.message import Checksummed, Message
    from repro.mpi.world import World

    class _MiscountingWorld(World):
        tampered = False

        def _deliver(self, msg):
            env = msg.payload
            if not self.tampered and isinstance(env, Checksummed):
                samples = unpack_samples(env.payload, copy=True)
                if len(samples) > 1:
                    self.tampered = True
                    short = Checksummed.wrap(pack_samples(samples[:-1]), env.meta)
                    msg = Message(msg.source, msg.dest, msg.tag, short, msg.seq)
            super()._deliver(msg)

    return _MiscountingWorld(size, **kwargs)


def _miscount_worker(comm):
    from repro.mpi.errors import UnrecoveredFaultError

    storage = StorageArea()
    for gid in _oracle_shards(comm.size)[comm.rank]:
        storage.add(_ORACLE_X[gid], int(_ORACLE_Y[gid]), gid=gid)
    before = storage.hot_gids()
    sched = Scheduler(storage, comm, fraction=1.0, seed=_ORACLE_SEED)
    try:
        sched.run_exchange(0)
    except UnrecoveredFaultError:
        assert storage.hot_gids() == before, "a malformed frame was installed"
        raise
    return True


def test_frame_count_disagreeing_with_plan_is_malformed(backend, own_segments):
    from repro.mpi.errors import UnrecoveredFaultError

    with pytest.raises(RankFailed) as info:
        run_spmd(
            _miscount_worker, 2, backend=backend, deadline_s=60,
            world_factory=_miscounting_world,
        )
    errors = [
        e for e in info.value.failures.values()
        if isinstance(e, UnrecoveredFaultError)
    ]
    assert errors and "malformed envelope" in str(errors[0])
    assert own_segments() == []


# ------------------------------------------------------- frames recycle
def _pinned_outside_slots(storage):
    """Bytes the hot samples keep alive that are not the storage area's own
    slot chunks (following ``.base`` / ``memoryview.obj`` to whatever owns
    the memory): a pinned frame or dataset array would show up here."""
    chunks = {id(c) for pool in storage._pools.values() for c in pool.chunks}
    roots = {}
    for _sid, sample, _label in storage.items():
        root = sample
        while True:
            if isinstance(root, np.ndarray) and root.base is not None:
                root = root.base
            elif isinstance(root, memoryview):
                root = root.obj
            else:
                break
        if id(root) not in chunks:
            roots[id(root)] = root.nbytes if isinstance(root, np.ndarray) else len(root)
    return sum(roots.values())


def _recycling_worker(comm, epochs):
    storage = StorageArea()
    x = np.random.default_rng(comm.rank).random((64, 32)).astype(np.float32)
    for i in range(len(x)):
        storage.add(x[i], i % 5, gid=comm.rank * len(x) + i)
    sched = Scheduler(storage, comm, fraction=1.0, batch_size=8, seed=3)
    per_epoch = []
    for epoch in range(epochs):
        sched.run_exchange(epoch)
        comm.barrier()  # every rank settled its frames: the pool is quiet
        stats = comm.pool.stats()
        per_epoch.append(
            {
                "pinned": _pinned_outside_slots(storage),
                "slots": storage.audit(),
                "hits": stats["hits"],
                "in_use": stats["in_use"],
            }
        )
        comm.barrier()
    return per_epoch


def test_frames_recycle_and_pin_nothing(backend):
    result = run_spmd(_recycling_worker, 2, args=(3,), backend=backend, deadline_s=120)
    for per_epoch in result:
        for epoch, seen in enumerate(per_epoch):
            # Q=1: every hot sample was installed by the exchange, into the
            # area's own slots — no entry keeps a frame (or the dataset)
            # alive — and those never outgrow hot + cold + one epoch's
            # arrivals by more than a chunk (64 slots).
            assert seen["pinned"] == 0
            assert seen["slots"]["live"] >= 64 and seen["slots"]["staged"] == 0
            assert seen["slots"]["allocated"] <= 4 * 64
            assert seen["in_use"] == 0
            if epoch >= 1:
                assert seen["hits"] > 0, "epoch 1 did not reuse epoch 0's frames"
    result.world.pool.assert_balanced()
    assert result.world.pool.stats()["adopts"] == 0


def test_procs_exchange_fits_a_small_fd_budget(own_segments):
    """Regression: a rank process used to map one fresh segment (two fds)
    per message and never let go, running out of descriptors after a few
    epochs.  Released segments now always return to the free list, so six
    epochs of partial-1 fit under RLIMIT_NOFILE = 512."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (512, hard))
    try:
        result = run_spmd(
            _recycling_worker, 2, args=(6,), backend="procs", deadline_s=120
        )
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    stats = result.world.pool.stats()
    # 64 rounds in Q*b = 8-round windows, two peers, two ranks: at most 32
    # frames are in flight in one epoch, and later epochs reuse them.
    assert stats["high_water"] <= 32
    assert stats["segments"] <= 32
    assert stats["acquires"] > 4 * stats["segments"]
    assert own_segments() == []


def test_dead_peer_epitaph_crosses_backends(backend):
    def worker(comm):
        if comm.rank == 1:
            raise RankDied("node lost")
        try:
            comm.recv(source=1, tag=9)
        except PeerFailure as exc:
            return (exc.rank, exc.epitaph)
        return None

    result = run_spmd(worker, 2, backend=backend)
    assert result[0] == (1, "node lost")
    assert isinstance(result[1], RankDied)
    assert set(result.world.dead_ranks()) == {1}


def _abort_worker(comm, samples, q, seed):
    storage = StorageArea()
    rng = np.random.default_rng(seed + comm.rank)
    for _ in range(samples):
        storage.add(rng.random((16, 16)).astype(np.float32), int(rng.integers(0, 8)))
    sched = Scheduler(storage, comm, fraction=q, seed=seed)
    sched.run_exchange(0)
    if comm.rank == 1:
        raise ValueError("injected mid-run failure")
    comm.barrier()
    sched.run_exchange(1)
    return True


def test_abort_mid_exchange_cleans_segments(backend, own_segments):
    with pytest.raises(RankFailed) as info:
        run_spmd(_abort_worker, 2, args=(32, 0.5, 3), backend=backend)
    assert isinstance(info.value.failures[1], ValueError)
    # The launcher's exit path must have unlinked every shared-memory
    # segment even though buffers were in flight when rank 1 died.
    assert own_segments() == []


def _sigkill_worker(comm, deadline_s, kill=True):
    import os
    import signal
    import time

    storage = StorageArea()
    rng = np.random.default_rng(comm.rank)
    for _ in range(32):
        storage.add(rng.random((16, 16)).astype(np.float32), int(rng.integers(0, 8)))
    sched = Scheduler(storage, comm, fraction=1.0, batch_size=8, seed=5)
    sched.scheduling(0)
    if comm.rank == 1:
        sched.communicate_chunk()  # one window: a frame per peer, each a cast
        if kill:
            os.kill(os.getpid(), signal.SIGKILL)  # right behind its last isend
    if not kill:  # the reference: what rank 1's one window puts on the wire
        comm.barrier()
        return sched.abort_exchange()
    t0 = time.monotonic()
    try:
        sched.synchronize(*sched.communicate())
    finally:
        assert time.monotonic() - t0 < deadline_s


def test_a_sigkilled_rank_delivers_what_it_cast_and_strands_nobody(own_segments):
    """What only ``procs`` can do: a rank really dies, between two
    instructions.  The frames it cast just before are still served (the
    pipe drains before its broker reads EOF), the survivors leave the
    exchange with MPIAbort / PeerFailure well inside the deadline, and no
    segment outlives the run."""
    from repro.mpi import MPIAbort, World

    worlds = []

    def factory(size, **kwargs):
        worlds.append(World(size, **kwargs))
        return worlds[0]

    deadline_s = 60.0
    with pytest.raises(RankFailed) as info:
        run_spmd(
            _sigkill_worker, 3, args=(deadline_s,), backend="procs",
            deadline_s=deadline_s, world_factory=factory,
        )
    assert set(info.value.failures) == {0, 1, 2}
    assert all(
        isinstance(exc, (MPIAbort, PeerFailure)) for exc in info.value.failures.values()
    )
    world = worlds[0]
    assert "rank 1 process terminated unexpectedly" in world.abort_reason
    # Every frame of the window rank 1 posted before it died was delivered.
    alive = run_spmd(_sigkill_worker, 3, args=(deadline_s, False)).world
    assert world.messages_sent[1] == alive.messages_sent[1] >= 1
    assert world.bytes_sent[1] == alive.bytes_sent[1]
    assert own_segments() == []


def test_elastic_kill_parity(backend):
    from repro.data import SyntheticSpec
    from repro.elastic import LifecyclePlan, run_lifecycle
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    spec = SyntheticSpec(n_samples=120, n_classes=4, n_features=16, seed=0)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=3,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=0,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)

    def run(bk):
        result = run_lifecycle(
            config=config, workers=3, q=0.3,
            plan=LifecyclePlan.parse(kills="1@1:mid_exchange"),
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
            backend=bk,
        )
        return (
            result.final_accuracy,
            tuple(r["dead_ranks"] for r in result.recoveries),
            result.final_workers,
        )

    got = run(backend)
    ref = _once(
        "elastic-kill", lambda: got if backend == "threads" else run("threads")
    )
    assert got == ref


def test_chaos_corruption_parity(backend):
    from repro.data import SyntheticSpec
    from repro.faults import run_chaos_train
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    spec = SyntheticSpec(n_samples=96, n_classes=4, n_features=16, seed=0)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=2,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=0,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)

    def run(bk):
        result = run_chaos_train(
            config=config, workers=2, q=0.3, profile="corrupt:p=0.1", seed=1,
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
            backend=bk,
        )
        # The chaos engine must see identical payload bytes on both
        # backends, so the injection counts match, not just the accuracy.
        return (result.final_accuracy, dict(result.injected))

    got = run(backend)
    ref = _once(
        "chaos-corrupt", lambda: got if backend == "threads" else run("threads")
    )
    assert got == ref
