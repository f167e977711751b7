"""The epoch's collectives, counted, and validation sharded over the ranks."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import run_spmd
from repro.nn import build_model
from repro.shuffle import strategy_from_name
from repro.train import TrainConfig, evaluate, train_worker
from repro.train.trainer import _validate_stride

RANKS = 2
BATCH = 8
SAMPLES = 64
STEPS = SAMPLES // RANKS // BATCH  # k


def traced_run(model, in_shape, strategy, *, tracing=True, backend="threads"):
    """Two epochs of ``train_worker``; each rank returns its history and
    its final weights."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(SAMPLES, *in_shape)).astype(np.float32)
    y = rng.integers(0, 4, size=SAMPLES)
    config = TrainConfig(
        model=model, in_shape=in_shape, num_classes=4, epochs=2, batch_size=BATCH
    )

    def worker(comm):
        history, trained = train_worker(
            comm, config, strategy_from_name(strategy), TensorDataset(X, y), y,
            X[:10], y[:10], return_model=True,
        )
        return history, trained.state_dict()

    return run_spmd(
        worker, RANKS, tracing=tracing, deadline_s=300,
        backend=backend,
    )


def collectives_per_epoch(result):
    """``coll.*`` events inside each ``train.epoch`` region, per rank."""
    counts = []
    for rec in result.world.flight.recorders:
        events = rec.events()
        for epoch in (e for e in events if e["kind"] == "train.epoch"):
            lo, hi = epoch["ts"], epoch["ts"] + epoch["dur"]
            counts.append(
                sum(e["kind"].startswith("coll.") and lo <= e["ts"] <= hi for e in events)
            )
    return counts


@pytest.mark.parametrize("model,in_shape", [("mlp", (16,)), ("resnet_tiny", (3, 8, 8))])
def test_an_epoch_of_k_steps_issues_k_plus_3_collectives(model, in_shape):
    """The iteration-count minimum, one gradient allreduce per step, one
    BatchNorm-statistics allreduce, one for the three sums of the tail;
    the exchange scheduler adds its plan and its commit-prefix agreement."""
    local = traced_run(model, in_shape, "local")
    assert collectives_per_epoch(local) == [STEPS + 3] * (2 * RANKS)
    partial = traced_run(model, in_shape, "partial-0.5")
    assert collectives_per_epoch(partial) == [STEPS + 3 + 2] * (2 * RANKS)


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_tracing_does_not_change_training(backend):
    """Tracing only records: the run it traces has the same history and
    byte-equal final weights as the same run untraced, on either backend."""
    plain, traced = (
        traced_run("mlp", (16,), "partial-0.5", tracing=tracing, backend=backend)
        for tracing in (False, True)
    )
    assert not plain.world.flight.detail and traced.world.flight.detail
    for (history, state), (traced_history, traced_state) in zip(plain, traced):
        assert traced_history.records == history.records
        assert traced_state.keys() == state.keys()
        for key, weights in state.items():
            assert traced_state[key].tobytes() == weights.tobytes(), key


@pytest.mark.parametrize("n_val,ranks", [(7, 2), (7, 3), (2, 3), (1, 4)])
def test_strides_count_what_one_pass_over_the_whole_set_counts(n_val, ranks):
    model = build_model("mlp", in_shape=(16,), num_classes=4, seed=1)
    X, y = make_classification(SyntheticSpec(n_val + 40, 4, n_features=16, seed=9))
    X, y = X[:n_val], y[:n_val]
    accuracy, _loss = evaluate(model, X, y)
    counts = [_validate_stride(model, X, y, r, ranks, 4) for r in range(ranks)]
    assert all(isinstance(c, int) for c in counts)
    assert sum(counts) == round(accuracy * n_val)
    # A rank past the end of a short set holds an empty stride: zero, no error.
    assert counts[n_val:] == [0] * max(0, ranks - n_val)


def test_an_empty_validation_set_is_still_rejected():
    model = build_model("mlp", in_shape=(16,), num_classes=4, seed=1)
    with pytest.raises(ValueError, match="empty validation set"):
        _validate_stride(model, np.zeros((0, 16)), np.zeros(0, dtype=np.int64), 0, 2, 8)


def test_training_with_fewer_validation_samples_than_ranks():
    X, y = make_classification(SyntheticSpec(96, 4, n_features=16, seed=3))
    config = TrainConfig(model="mlp", in_shape=(16,), num_classes=4, epochs=2, batch_size=8)

    def worker(comm):
        return train_worker(
            comm, config, strategy_from_name("local"), TensorDataset(X, y), y, X[:2], y[:2]
        )

    histories = list(run_spmd(worker, 3, deadline_s=300))
    assert all(h.records == histories[0].records for h in histories)
    for record in histories[0].records:
        assert record.val_accuracy in (0.0, 0.5, 1.0)
        assert record.samples_seen == 96 and isinstance(record.samples_seen, int)
