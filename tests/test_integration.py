"""End-to-end integration tests crossing module boundaries."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    SyntheticSpec,
    make_classification,
    materialize_folder_dataset,
)
from repro.mpi import run_spmd
from repro.nn import SGD, Tensor, accuracy, build_model
from repro.nn import functional as F
from repro.shuffle import PartialLocalShuffle, PLSFolderDataset, Scheduler
from repro.train import (
    TrainConfig,
    allreduce_gradients,
    broadcast_model,
    run_comparison,
)


class TestOnDiskPLSPipeline:
    """The full Figure-3 flow over real files: folder dataset -> per-rank
    disk shard -> scheduler exchange -> training -> accuracy."""

    def test_training_learns_and_storage_consistent(self, tmp_path):
        spec = SyntheticSpec(n_samples=320, n_classes=4, n_features=16,
                             separation=2.6, seed=9)
        X, y = make_classification(spec)
        order = np.random.default_rng(0).permutation(len(X))
        X, y = X[order], y[order]
        val_X, val_y = X[:64], y[:64]
        source = materialize_folder_dataset(tmp_path / "src", X[64:], y[64:],
                                            num_classes=4)

        def worker(comm):
            pls = PLSFolderDataset(source, comm, tmp_path / "local",
                                   partition="class_sorted", seed=9)
            sched = Scheduler(pls.storage, comm, fraction=0.4, batch_size=8, seed=9)
            model = build_model("mlp", in_shape=(16,), num_classes=4, seed=9)
            broadcast_model(model, comm)
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            for epoch in range(6):
                sched.scheduling(epoch)
                loader = DataLoader(pls, 8, shuffle=True, seed=epoch)
                iters = comm.allreduce(len(loader), op=min)
                it = iter(loader)
                for _ in range(iters):
                    xb, yb = next(it)
                    loss = F.cross_entropy(model(Tensor(xb)), yb)
                    model.zero_grad()
                    loss.backward()
                    allreduce_gradients(model, comm)
                    opt.step()
                    sched.communicate_chunk()
                sched.communicate()
                sched.synchronize()
                sched.clean_local_storage()
                pls.refresh()
            model.eval()
            acc = accuracy(model(Tensor(val_X)), val_y)
            nfiles = len(list(pls.storage.root.glob("*.npy")))
            return (acc, len(pls), nfiles)

        out = run_spmd(worker, 4, deadline_s=300)
        for acc, n, nfiles in out:
            assert acc > 0.7  # it learned
            assert n == nfiles == 64  # storage and disk agree


class TestDeterminism:
    def test_identical_runs_identical_histories(self):
        spec = SyntheticSpec(n_samples=256, n_classes=4, n_features=16, seed=2)
        config = TrainConfig(model="mlp", epochs=4, batch_size=8, base_lr=0.05,
                             partition="class_sorted", seed=7)
        kwargs = dict(spec=spec, config=config, workers=4,
                      strategies=["partial-0.5"])
        a = run_comparison(**kwargs)
        b = run_comparison(**kwargs)
        ha, hb = a.histories["partial-0.5"], b.histories["partial-0.5"]
        assert [r.val_accuracy for r in ha.records] == [
            r.val_accuracy for r in hb.records
        ]
        assert [r.train_loss for r in ha.records] == [
            r.train_loss for r in hb.records
        ]

    def test_overlap_does_not_change_results(self):
        """Figure 4's overlap is a pure performance optimisation: blocking
        and overlapped exchanges must move identical samples and produce
        identical training histories."""
        spec = SyntheticSpec(n_samples=256, n_classes=4, n_features=16, seed=2)
        from dataclasses import replace

        from repro.train.experiments import make_experiment_data
        from repro.train.trainer import train_worker

        config = TrainConfig(model="mlp", epochs=4, batch_size=8, base_lr=0.05,
                             partition="class_sorted", seed=7,
                             in_shape=(16,), num_classes=4)
        train_ds, labels, val_X, val_y = make_experiment_data(spec)

        class Blocking(PartialLocalShuffle):
            def on_iteration(self):
                """Post nothing under compute: end_epoch posts it all."""

        def run(overlap):
            def worker(comm):
                strat = (PartialLocalShuffle if overlap else Blocking)(0.5)
                return train_worker(comm, config, strat, train_ds, labels,
                                    val_X, val_y)

            return run_spmd(worker, 4, copy_on_send=False, deadline_s=300)[0]

        h_over, h_block = run(True), run(False)
        assert [r.val_accuracy for r in h_over.records] == [
            r.val_accuracy for r in h_block.records
        ]
