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
from repro.mpi.shm_pool import live_segments
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
# One differential test for the exchange: whatever the backend, the fault
# profile or the message granularity, every rank must end each epoch holding
# exactly the samples ``reconstruct_ledger`` — a communicator-free replay of
# Algorithm 1 — says it holds, with the source dataset's bytes.
_ORACLE_RANKS = 3
_ORACLE_N_LOCAL = 12
_ORACLE_Q = 0.5
_ORACLE_SEED = 7
_ORACLE_EPOCHS = 3
_ORACLE_X = np.random.default_rng(0).random(
    (_ORACLE_RANKS * _ORACLE_N_LOCAL, 8, 8)
).astype(np.float32)
_ORACLE_Y = np.arange(len(_ORACLE_X)) % 5
_ORACLE_SHARDS = [
    list(range(r * _ORACLE_N_LOCAL, (r + 1) * _ORACLE_N_LOCAL))
    for r in range(_ORACLE_RANKS)
]


def _oracle_worker(comm, granularity):
    storage = StorageArea()
    for gid in _ORACLE_SHARDS[comm.rank]:
        storage.add(_ORACLE_X[gid], int(_ORACLE_Y[gid]), gid=gid)
    sched = Scheduler(
        storage, comm, fraction=_ORACLE_Q, seed=_ORACLE_SEED,
        granularity=granularity, resend_timeout_s=0.05,
    )
    after_epoch = []
    for epoch in range(_ORACLE_EPOCHS):
        sched.run_exchange(epoch)
        after_epoch.append(
            [
                (storage.gid_of(sid), int(label), np.asarray(sample).tobytes())
                for sid, sample, label in storage.items()
            ]
        )
    return after_epoch


@pytest.mark.parametrize("granularity", [1, 4])
@pytest.mark.parametrize(
    "profile", ["", "corrupt:p=0.1;drop:p=0.05;dup:p=0.05"], ids=["clean", "chaos"]
)
def test_exchange_matches_oracle(backend, profile, granularity):
    from repro.elastic import reconstruct_ledger
    from repro.faults import ChaosEngine, ChaosWorld

    engine = ChaosEngine(profile, seed=1)

    def chaos_world(size, **kwargs):
        return ChaosWorld(size, chaos=engine, **kwargs)

    result = run_spmd(
        _oracle_worker, _ORACLE_RANKS, args=(granularity,), backend=backend,
        deadline_s=120, world_factory=chaos_world if profile else None,
    )
    if profile:
        assert sum(engine.snapshot().values()) > 0, "chaos injected nothing"
    for epochs in range(1, _ORACLE_EPOCHS + 1):
        oracle = reconstruct_ledger(
            _ORACLE_SEED, _ORACLE_SHARDS, epochs, _ORACLE_Q,
            granularity=granularity,
        )
        for rank, after_epoch in enumerate(result):
            hot = after_epoch[epochs - 1]
            assert sorted(gid for gid, _, _ in hot) == oracle.held_by(rank)
            for gid, label, raw in hot:
                assert label == _ORACLE_Y[gid]
                assert raw == _ORACLE_X[gid].tobytes()


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


def test_abort_mid_exchange_cleans_segments(backend):
    with pytest.raises(RankFailed) as info:
        run_spmd(_abort_worker, 2, args=(32, 0.5, 3), backend=backend)
    assert isinstance(info.value.failures[1], ValueError)
    # The launcher's exit path must have unlinked every shared-memory
    # segment even though buffers were in flight when rank 1 died.
    assert live_segments() == []


def test_elastic_kill_parity(backend):
    from repro.data import SyntheticSpec
    from repro.elastic import run_elastic
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    spec = SyntheticSpec(n_samples=120, n_classes=4, n_features=16, seed=0)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=3,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=0,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)

    def run(bk):
        result = run_elastic(
            config=config, workers=3, q=0.3, failures="1@1:mid_exchange",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
            backend=bk,
        )
        return (
            result.final_accuracy,
            tuple(r["dead_ranks"] for r in result.recoveries),
            result.history.stats.get("final_workers"),
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
