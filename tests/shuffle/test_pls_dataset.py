"""PLSFolderDataset: the on-disk PLS.ImageFolder analogue."""

import numpy as np
import pytest

from repro.data import materialize_folder_dataset
from repro.mpi import run_spmd
from repro.shuffle import PLSFolderDataset, Scheduler

from exchange_steps import exchange_epoch


@pytest.fixture
def source(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(16, 4)).astype(np.float32)
    y = np.arange(16) % 4
    return materialize_folder_dataset(tmp_path / "source", X, y, num_classes=4)


class TestPLSFolderDataset:
    def test_sharding(self, source, tmp_path):
        def worker(comm):
            pls = PLSFolderDataset(source, comm, tmp_path / "local", seed=3)
            return len(pls)

        out = run_spmd(worker, 4, deadline_s=60)
        assert list(out) == [4, 4, 4, 4]

    def test_rank_dirs_disjoint(self, source, tmp_path):
        def worker(comm):
            pls = PLSFolderDataset(source, comm, tmp_path / "local", seed=3)
            return sorted(str(p.name) for p in pls.storage.root.glob("*.npy"))

        out = run_spmd(worker, 4, deadline_s=60)
        # Each rank has its own subdirectory with its own files.
        assert all(len(files) == 4 for files in out)

    def test_dataset_interface(self, source, tmp_path):
        def worker(comm):
            pls = PLSFolderDataset(source, comm, tmp_path / "local", seed=3)
            x, y = pls[0]
            return (x.shape, int(y))

        out = run_spmd(worker, 2, deadline_s=60)
        assert out[0][0] == (4,)

    def test_exchange_and_refresh(self, source, tmp_path):
        """Full Figure-3 style flow: scheduler mutates the storage, refresh
        exposes the new shard, and files on disk follow."""

        def worker(comm):
            pls = PLSFolderDataset(source, comm, tmp_path / "local",
                                   partition="class_sorted", seed=3)
            labels_before = sorted(pls[i][1] for i in range(len(pls)))
            sched = Scheduler(pls.storage, comm, fraction=0.5, seed=3)
            exchange_epoch(sched, epoch=0)
            pls.refresh()
            labels_after = sorted(pls[i][1] for i in range(len(pls)))
            nfiles = len(list(pls.storage.root.glob("*.npy")))
            return (labels_before, labels_after, len(pls), nfiles)

        out = run_spmd(worker, 4, deadline_s=60)
        # Shard size constant, files match entries.
        for before, after, n, nfiles in out:
            assert n == 4
            assert nfiles == 4
        # Class-sorted start: each shard is one class; after a 50% exchange
        # at least one worker must hold a different label multiset.
        assert any(before != after for before, after, _, _ in out)
