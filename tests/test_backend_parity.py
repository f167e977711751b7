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
# size, the fault profile or the window size, every rank must end each
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


def _oracle_worker(comm, batch_size):
    storage = StorageArea()
    for gid in _oracle_shards(comm.size)[comm.rank]:
        storage.add(_ORACLE_X[gid], int(_ORACLE_Y[gid]), gid=gid)
    sched = Scheduler(
        storage, comm, fraction=_ORACLE_Q, seed=_ORACLE_SEED,
        resend_timeout_s=0.05, batch_size=batch_size,
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


def _check_against_oracle(backend, profile, ranks, batch_size):
    from repro.elastic import reconstruct_ledger
    from repro.faults import ChaosEngine, ChaosWorld

    engine = ChaosEngine(profile, seed=1)

    def chaos_world(size, **kwargs):
        return ChaosWorld(size, chaos=engine, **kwargs)

    result = run_spmd(
        _oracle_worker, ranks, args=(batch_size,), backend=backend,
        deadline_s=120, world_factory=chaos_world if profile else None,
    )
    if profile:
        assert sum(engine.snapshot().values()) > 0, "chaos injected nothing"
    shards = _oracle_shards(ranks)
    for epochs in range(1, _ORACLE_EPOCHS + 1):
        oracle = reconstruct_ledger(_ORACLE_SEED, shards, epochs, _ORACLE_Q)
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


#: Rounds per window: the epoch's six rounds as six windows, or as a window
#: of four and a short one (batch size ``2 * window`` at Q = 0.5).
_WINDOW = pytest.mark.parametrize("window", [1, 4])


@_WINDOW
@_CHAOS
def test_exchange_matches_oracle(backend, profile, window, monkeypatch):
    """... and the servicing schedule is not observable: swept after every
    window or only in ``synchronize()`` (six one-round windows an epoch), a
    rank ends every epoch with the same samples under the same ids."""
    import repro.shuffle.scheduler as scheduler_mod

    _check_against_oracle(backend, profile, ranks=3, batch_size=2 * window)
    shards = []
    for every in (1, 10**6):
        monkeypatch.setattr(scheduler_mod, "SERVICE_EVERY", every)
        shards.append(_check_against_oracle(backend, profile, ranks=3, batch_size=2))
    assert shards[0] == shards[1]


@pytest.mark.parametrize("ranks", [2, 5])
@_WINDOW
@_CHAOS
def test_exchange_matches_oracle_at_other_world_sizes(backend, profile, window, ranks):
    """M=2: every window is two fat frames (one to self); M=5: the epoch's
    rounds spread so thin that some (window, peer) pairs have no frame."""
    _check_against_oracle(backend, profile, ranks, batch_size=2 * window)


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
    from repro.mpi.pool import BufferPool
    from repro.mpi.world import World

    class _MiscountingWorld(World):
        tampered = False

        def _deliver(self, msg):
            env = msg.payload
            if not self.tampered and isinstance(env, Checksummed):
                samples = unpack_samples(env.payload)
                if len(samples) > 1:
                    self.tampered = True
                    short = pack_samples(samples[:-1], pool=BufferPool(name="tamper"))
                    short = Checksummed.wrap(short, env.meta)
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
def _recycling_worker(comm, epochs, pinned_outside_slots):
    storage = StorageArea()
    x = np.random.default_rng(comm.rank).random((64, 32)).astype(np.float32)
    storage.add_many((x[i], i % 5, comm.rank * len(x) + i) for i in range(len(x)))
    sched = Scheduler(storage, comm, fraction=1.0, batch_size=8, seed=3)
    per_epoch = []
    for epoch in range(epochs):
        sched.run_exchange(epoch)
        comm.barrier()  # every rank settled its frames: the pool is quiet
        stats = comm.pool.stats()
        per_epoch.append(
            {
                "pinned": pinned_outside_slots(storage),
                "slots": storage.audit(),
                "hits": stats["hits"],
                "acquires": stats["acquires"],
                "in_use": stats["in_use"],
            }
        )
        comm.barrier()
    return per_epoch


def test_frames_recycle_and_pin_nothing(backend, pinned_outside_slots):
    result = run_spmd(
        _recycling_worker, 2, args=(3, pinned_outside_slots), backend=backend,
        deadline_s=120,
    )
    for per_epoch in result:
        for epoch, seen in enumerate(per_epoch):
            # Every hot sample is a row of the area's own slots — no entry
            # keeps a frame (or the dataset) alive — and those never outgrow
            # the paper's (1+Q)·N/M at Q=1: the shard plus one epoch's
            # arrivals, two chunks of 64 slots.
            assert seen["pinned"] == 0
            assert seen["slots"]["live"] == 64 and seen["slots"]["staged"] == 0
            assert seen["slots"]["allocated"] <= 2 * 64
            assert seen["in_use"] == 0
        # Epoch 0's acquires all allocate; the frames returned at each commit
        # serve at least half of the later epochs' acquires.
        warm, last = per_epoch[0], per_epoch[-1]
        hit_rate = (last["hits"] - warm["hits"]) / (last["acquires"] - warm["acquires"])
        assert hit_rate >= 0.5, hit_rate
    world = result.world
    world.pool.assert_balanced()
    assert world.pool.stats()["adopts"] == 0
    if backend == "procs":
        # A frame never visits the parent: posts and ACKs go through the
        # rank-to-rank rings, sweeps drain them, a pool miss is the rank's
        # own, and the barriers fold among the ranks.  A clean run sends
        # each frame once and one ACK for it; two round trips per rank and
        # epoch would already break the bound.
        frames = sum(world.messages_sent) / 2
        trips = sum(sum(rank.values()) for rank in world.rpc_counts)
        assert trips <= 0.1 * frames, (trips, frames)
        wires = {wire for rank in world.rpc_counts for wire in rank}
        assert not {"world.post", "pool.acquire"} & wires, wires
        assert not [wire for wire in wires if wire.startswith("mailbox.")], wires


def test_rank_pools_are_counted_in_the_parent(pinned_outside_slots):
    """Under ``procs`` each rank owns its pool; what ``world.pool.stats()``
    reads after the run is every rank pool's ledger, added up from the
    board, and the world's traffic counters are the ``threads`` run's."""
    runs = {
        backend: run_spmd(
            _recycling_worker, 2, args=(3, pinned_outside_slots), backend=backend,
            deadline_s=120,
        )
        for backend in ("threads", "procs")
    }
    procs = runs["procs"]
    stats = procs.world.pool.stats()
    assert stats["acquires"] == stats["releases"] > 0 and stats["in_use"] == 0
    assert stats["acquires"] == sum(per_epoch[-1]["acquires"] for per_epoch in procs)
    assert stats["hits"] == sum(per_epoch[-1]["hits"] for per_epoch in procs)
    for counter in ("messages_sent", "bytes_sent"):
        assert getattr(procs.world, counter) == getattr(runs["threads"].world, counter)


def test_procs_exchange_fits_a_small_fd_budget(own_segments, pinned_outside_slots):
    """Regression: a rank process used to map one fresh segment (two fds)
    per message and never let go, running out of descriptors after a few
    epochs.  Released segments now always return to the free list, so six
    epochs of partial-1 fit under RLIMIT_NOFILE = 512."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (512, hard))
    try:
        result = run_spmd(
            _recycling_worker, 2, args=(6, pinned_outside_slots), backend="procs",
            deadline_s=120,
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


def _resnet_worker(comm):
    import zlib

    from repro.data import TensorDataset
    from repro.shuffle import strategy_from_name
    from repro.train import TrainConfig, train_worker

    rng = np.random.default_rng(3)
    X = rng.normal(size=(64, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, size=64)
    config = TrainConfig(
        model="resnet_tiny", in_shape=(3, 8, 8), num_classes=4, epochs=2, batch_size=8
    )
    strategy = strategy_from_name("partial-0.5")
    history, model = train_worker(
        comm, config, strategy, TensorDataset(X, y), y, X[:16], y[:16], return_model=True
    )
    shard = [
        (strategy.storage.gid_of(sid), int(label), zlib.crc32(np.asarray(sample).tobytes()))
        for sid, sample, label in strategy.storage.items()
    ]
    weights = {k: v.tobytes() for k, v in model.state_dict().items()}
    return history.records, shard, weights, len(model._arena)


def test_resnet_training_matches_across_backends(backend):
    """Two rank replicas step at once, each in its own arena (two threads
    of one process, or two processes): history, shards and weights are the
    threads reference's, bit for bit."""
    reference = _once(
        "resnet", lambda: list(run_spmd(_resnet_worker, 2, copy_on_send=False, deadline_s=300))
    )
    got = list(run_spmd(_resnet_worker, 2, copy_on_send=False, deadline_s=300, backend=backend))
    assert all(arena > 0 for *_, arena in got)
    assert got == reference


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
        sched.communicate_chunk()  # one window: a frame per peer, each a ring entry
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
    instructions.  The frames it posted just before are still delivered
    and counted (its rings and traffic words on the board outlive it), the
    survivors leave the exchange with MPIAbort / PeerFailure well inside
    the deadline, and no segment outlives the run."""
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
    # Only the killed rank, as what happened to it: whatever the survivors
    # raised (MPIAbort, or PeerFailure naming rank 1) echoes its death.
    assert set(info.value.failures) == {1}
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


def _miss_then_die_worker(comm, deadline_s):
    import os
    import signal
    import time

    if comm.rank == 1:
        comm.pool.acquire(4096)  # a pool miss: a segment of rank 1's own
        os.kill(os.getpid(), signal.SIGKILL)  # before its first post
    t0 = time.monotonic()
    try:
        comm.recv(source=1, tag=3)
    finally:
        assert time.monotonic() - t0 < deadline_s


def test_a_rank_killed_after_a_pool_miss_leaves_no_segment(own_segments):
    """A rank's segments are its own, named under the launch and the rank:
    the parent unlinks them whether the rank ends or is killed, and the
    survivors' receives fail inside the deadline."""
    from repro.mpi import World

    worlds = []

    def factory(size, **kwargs):
        worlds.append(World(size, **kwargs))
        return worlds[0]

    deadline_s = 60.0
    with pytest.raises(RankFailed) as info:
        run_spmd(
            _miss_then_die_worker, 3, args=(deadline_s,), backend="procs",
            deadline_s=deadline_s, world_factory=factory,
        )
    assert set(info.value.failures) == {1}
    assert isinstance(info.value.failures[1], PeerFailure)
    # The survivors' own exceptions, as the launcher recorded them.
    for rank in (0, 2):
        raised = [
            e["error"] for e in worlds[0].flight.for_rank(rank).events()
            if e["kind"] == "rank.failed"
        ]
        assert raised in ([], ["PeerFailure"]), raised  # MPIAbort records none
    # The miss reached the parent through the board, the kill notwithstanding.
    assert worlds[0].pool.stats()["misses"] == 1
    assert own_segments() == []


def test_elastic_kill_parity(backend):
    from repro.data import SyntheticSpec
    from repro.elastic import run_lifecycle
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
            profile="kill:rank=1,epoch=1,point=mid_exchange",
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
    from repro.elastic import run_lifecycle
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    spec = SyntheticSpec(n_samples=96, n_classes=4, n_features=16, seed=0)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=2,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=0,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)

    def run(bk):
        result = run_lifecycle(
            config=config, workers=2, q=0.3, profile="corrupt:p=0.1", chaos_seed=1,
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


def test_chaos_control_faults_parity_across_a_restart(backend):
    """Under ``procs`` each rank process posts on its own copy of the chaos
    engine; what a copy drew (its control channels' attempt counters) is
    handed back when the rank ends, so a segment restarted after a crash
    draws on as the one engine does under ``threads``."""
    from repro.data import SyntheticSpec
    from repro.elastic import run_lifecycle
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    spec = SyntheticSpec(n_samples=96, n_classes=4, n_features=16, seed=0)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=3,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=0,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)

    def run(bk):
        result = run_lifecycle(
            config=config, workers=2, q=0.3, profile="dup:p=0.3@control;crash:epoch=1",
            chaos_seed=3, train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
            backend=bk,
        )
        return (result.final_accuracy, dict(result.injected))

    got = run(backend)
    ref = _once(
        "chaos-control-restart", lambda: got if backend == "threads" else run("threads")
    )
    assert got == ref
