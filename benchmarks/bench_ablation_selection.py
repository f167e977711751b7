"""ABLATION — which samples should leave? (selection policy, §IV-B hook)

Algorithm 1 picks the global partition uniformly at random.  The scheduler
also supports "stale" (oldest residents leave first — maximises sample
circulation).  This ablation trains
PLS under random vs stale selection on the skewed-shard problem and
compares accuracy, plus measures circulation directly: after E epochs at
fraction Q, what fraction of a worker's shard consists of samples it did
not start with?
"""

import numpy as np

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import run_spmd
from repro.shuffle import PartialLocalShuffle
from repro.train import TrainConfig, run_comparison
from repro.train.experiments import make_experiment_data
from repro.train.trainer import train_worker
from repro.utils import render_table

from _common import emit, once

SPEC = SyntheticSpec(
    n_samples=1024, n_classes=8, n_features=32, intra_modes=4,
    separation=2.2, noise=1.0, seed=3,
)
WORKERS = 8
EPOCHS = 10
Q = 0.2


def run_selection_ablation():
    from dataclasses import replace

    config = TrainConfig(
        model="mlp", epochs=EPOCHS, batch_size=8, base_lr=0.05,
        partition="class_sorted", seed=1,
    )
    cfg = replace(config, in_shape=(SPEC.n_features,), num_classes=SPEC.n_classes)
    train_ds, labels, val_X, val_y = make_experiment_data(SPEC)

    accuracies = {}
    for selection in ("random", "stale"):
        def worker(comm):
            strat = PartialLocalShuffle(Q, selection=selection)
            return train_worker(comm, cfg, strat, train_ds, labels, val_X, val_y)

        hist = run_spmd(worker, WORKERS, deadline_s=600)[0]
        accuracies[selection] = hist.best_accuracy

    # Circulation: owner-tagged storage, measure foreign fraction after E epochs.
    circulation = {}
    for selection in ("random", "stale"):
        def worker(comm):
            from repro.shuffle import Scheduler, StorageArea

            st = StorageArea()
            st.add_many(
                (np.array([comm.rank, i], dtype=np.float32), comm.rank, None)
                for i in range(64)
            )
            sched = Scheduler(st, comm, fraction=Q, seed=5, selection=selection,
                              allow_self=False)
            for e in range(EPOCHS):
                sched.run_exchange(e)
            owners = [int(s[0]) for _, s, _ in st.items()]
            return sum(1 for o in owners if o != comm.rank) / len(owners)

        foreign = run_spmd(worker, WORKERS, deadline_s=300)
        circulation[selection] = float(np.mean(foreign))

    return accuracies, circulation


def test_ablation_selection_policy(benchmark):
    accuracies, circulation = once(benchmark, run_selection_ablation)
    rows = [
        [sel, f"{accuracies[sel]:.3f}", f"{circulation[sel]:.2%}"]
        for sel in ("random", "stale")
    ]
    table = render_table(
        ["selection policy", "best top-1", "foreign-sample fraction after 10 epochs"],
        rows,
        title=(
            f"Ablation — exchange selection policy (Q={Q}, {WORKERS} workers, "
            "class-sorted shards)"
        ),
    )
    emit("ablation_selection", table)

    # Stale-first cannot re-send freshly received samples, so it circulates
    # at least as much foreign data as the uniform draw.
    assert circulation["stale"] >= circulation["random"] - 0.02
    # Both train to within noise of each other.
    assert abs(accuracies["stale"] - accuracies["random"]) < 0.15
