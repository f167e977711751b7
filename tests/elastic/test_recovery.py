"""Recovery through the one membership change (``rebalance``) end-to-end:
every lost sample is re-read from the source dataset, and the executor's
read of it."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.data.folder import materialize_folder_dataset
from repro.elastic import ReplicaLedger, rebalance
from repro.elastic.migration import READ, migrate
from repro.mpi import PeerFailure, RankDied, run_spmd
from repro.shuffle import PartialLocalShuffle
from repro.shuffle.storage import StorageArea
from repro.utils.retry import default_retrier


def make_ds(n=48, classes=4, features=8, seed=0):
    X, y = make_classification(
        SyntheticSpec(n, classes, n_features=features, seed=seed)
    )
    return TensorDataset(X, y), y


def _elastic_worker(comm, ds, labels, *, q, seed, epochs, victim, kill_epoch):
    """Drive PLS epochs, kill ``victim`` at ``kill_epoch``, recover."""
    strat = PartialLocalShuffle(q, ledger=ReplicaLedger())
    strat.setup(comm, ds, labels=labels, partition="contiguous", seed=seed)
    report = None
    epoch = 0
    while epoch < epochs:
        try:
            if comm.group[comm.rank] == victim and epoch == kill_epoch:
                raise RankDied("injected fault")
            strat.begin_epoch(epoch)
            for _ in strat.epoch_loader(epoch, 4):
                strat.on_iteration()
            strat.end_epoch()
        except PeerFailure:
            newcomm = comm.shrink()
            strat.abort_epoch()
            report = rebalance(newcomm, strat.storage, strat.ledger, dataset=ds)
            strat.attach_comm(newcomm)
            comm = newcomm
            continue
        epoch += 1
    return {
        "hot": sorted(strat.storage.hot_gids()),
        "report": report,
        "group": comm.group,
    }


class TestShardRecovery:
    def test_zero_sample_loss(self):
        ds, labels = make_ds(n=48)

        def worker(comm):
            return _elastic_worker(
                comm, ds, labels, q=0.3, seed=7, epochs=4,
                victim=1, kill_epoch=2,
            )

        out = run_spmd(worker, 4, deadline_s=120)
        survivors = [r for r in out if isinstance(r, dict)]
        assert len(survivors) == 3
        held = sorted(g for r in survivors for g in r["hot"])
        assert held == list(range(48))  # every gid exactly once, none lost
        report = survivors[0]["report"].as_dict()
        assert report["dead_ranks"] == [1]
        assert report["from_source"] == report["lost_gids"] > 0

    def test_reports_identical_on_all_survivors(self):
        ds, labels = make_ds(n=36)

        def worker(comm):
            return _elastic_worker(
                comm, ds, labels, q=0.5, seed=3, epochs=3,
                victim=2, kill_epoch=1,
            )

        out = run_spmd(worker, 3, deadline_s=120)
        reports = [r["report"] for r in out if isinstance(r, dict)]
        assert all(r.moves == reports[0].moves for r in reports)
        assert all(r.bytes_transferred == reports[0].bytes_transferred for r in reports)

    def test_no_replica_and_no_dataset_fails_loudly(self):
        ds, labels = make_ds(n=24)

        def worker(comm):
            strat = PartialLocalShuffle(0.25, ledger=ReplicaLedger())
            strat.setup(comm, ds, labels=labels, partition="contiguous", seed=1)
            if comm.rank == 1:
                raise RankDied()
            with pytest.raises(PeerFailure):
                strat.begin_epoch(0)
                for _ in strat.epoch_loader(0, 4):
                    strat.on_iteration()
                strat.end_epoch()
            newcomm = comm.shrink()
            strat.abort_epoch()
            with pytest.raises(RuntimeError, match="no source dataset"):
                rebalance(newcomm, strat.storage, strat.ledger, dataset=None)
            return True

        out = run_spmd(worker, 2, deadline_s=120)
        assert out[0] is True


class TestSourceDatasetRead:
    def test_an_unreadable_sample_is_tried_once_per_retry_budget(self, tmp_path):
        """The dataset retries its own reads; the executor must not wrap it
        in a second retry loop, which replayed the same failing attempts
        (6 x 6 reads, 7 give-ups where one sample was lost)."""
        features = np.arange(4 * 8, dtype=np.float32).reshape(4, 8)
        unreadable = []
        reads = []

        def hook(op, path, attempt):
            if path in unreadable:
                reads.append(attempt)
                raise OSError(f"injected: {path} unreadable")

        ds = materialize_folder_dataset(
            tmp_path, features, [0, 1, 0, 1], fault_hook=hook
        )
        # FolderDataset index 2: the first sample of class 1, written as #1.
        unreadable.append("class_001/sample_000001.npy")
        retrier = default_retrier()
        giveups = retrier.stats()["giveups"]

        def worker(comm):
            with pytest.raises(OSError, match="unreadable"):
                migrate(
                    comm, StorageArea(), ReplicaLedger(), [(2, None, 0, READ)],
                    dataset=ds,
                )
            return True

        assert list(run_spmd(worker, 1, deadline_s=60)) == [True]
        assert len(reads) == retrier.attempts
        assert retrier.stats()["giveups"] - giveups == 1
