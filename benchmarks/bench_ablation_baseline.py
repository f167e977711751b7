"""ABLATION — controlled PLS vs the uncontrolled-cache related work (§VI-A).

DeepIO [16] / Yang & Cong [17] keep data local and refresh opportunistically
with an *unidentified* local/global split.  The paper's critique: the bias
is uncontrolled and the traffic unbalanced.  This ablation runs PLS (fixed
Q) against :class:`UncontrolledCachedShuffle` (same *mean* refresh) on the
same skewed-partition problem and compares (a) accuracy, (b) per-worker
traffic balance, and (c) per-epoch traffic predictability.
"""

import numpy as np

from repro.data import SyntheticSpec
from repro.shuffle import UncontrolledCachedShuffle
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
Q = 0.3


def run_both():
    config = TrainConfig(
        model="mlp", epochs=EPOCHS, batch_size=8, base_lr=0.05,
        partition="class_sorted", seed=1,
    )
    pls_res = run_comparison(
        spec=SPEC, config=config, workers=WORKERS, strategies=[f"partial-{Q}"]
    )
    # Cached baseline through the same trainer.
    from dataclasses import replace

    from repro.mpi import run_spmd

    cfg = replace(config, in_shape=(SPEC.n_features,), num_classes=SPEC.n_classes)
    train_ds, labels, val_X, val_y = make_experiment_data(SPEC)

    def worker(comm):
        strat = UncontrolledCachedShuffle(mean_refresh=Q / 2)  # same mean volume
        return train_worker(comm, cfg, strat, train_ds, labels, val_X, val_y)

    cached_histories = run_spmd(worker, WORKERS, deadline_s=600)
    per_worker_remote = [h.stats["remote_reads"] for h in cached_histories]
    return pls_res, cached_histories[0], per_worker_remote


def test_ablation_controlled_vs_uncontrolled(benchmark):
    pls_res, cached_hist, cached_remote = once(benchmark, run_both)
    pls_hist = pls_res.histories[f"partial-{Q}"]

    pls_remote = pls_hist.stats["recv_samples"]
    rows = [
        [
            f"partial-{Q} (controlled)",
            f"{pls_hist.best_accuracy:.3f}",
            pls_remote,
            "0 (balanced by construction)",
        ],
        [
            cached_hist.strategy + " (uncontrolled)",
            f"{cached_hist.best_accuracy:.3f}",
            int(np.mean(cached_remote)),
            f"{np.std(cached_remote):.1f}",
        ],
    ]
    table = render_table(
        ["scheme", "best top-1", "remote samples/worker", "cross-worker traffic std"],
        rows,
        title=(
            f"Ablation — PLS vs uncontrolled cache, {WORKERS} workers, "
            "class-sorted shards, matched mean refresh volume"
        ),
    )
    table += (
        f"\nper-epoch refresh counts (worker 0, uncontrolled): "
        f"{cached_hist.stats['refresh_counts']}"
    )
    emit("ablation_baseline", table)

    # PLS traffic is identical across workers; the cache baseline's is not.
    assert np.std(cached_remote) > 0
    # Accuracy: the controlled exchange should be at least competitive.
    assert pls_hist.best_accuracy > cached_hist.best_accuracy - 0.05
