"""Cold replica cache semantics, recovery through the one membership change
(``rebalance``) end-to-end, and the PFS fallback read of the migration
executor."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.data.folder import materialize_folder_dataset
from repro.elastic import ReplicaLedger, rebalance
from repro.elastic.migration import READ, migrate
from repro.mpi import PeerFailure, RankDied, run_spmd
from repro.shuffle import PartialLocalShuffle
from repro.shuffle.storage import StorageArea, StorageFullError
from repro.utils.retry import default_retrier


def make_ds(n=48, classes=4, features=8, seed=0):
    X, y = make_classification(
        SyntheticSpec(n, classes, n_features=features, seed=seed)
    )
    return TensorDataset(X, y), y


def _sample(v, nbytes=32):
    return np.full(nbytes // 8, float(v))


class TestColdReplicaCache:
    def test_demote_keeps_bytes_resident_but_not_trainable(self):
        st = StorageArea()
        sid = st.add(_sample(1), 0, gid=7)
        assert st.demote(sid)
        assert st.sid_of(7) is None and 7 in st.cold_gids()
        assert sid not in st.ids()
        sample, label = st.get_by_gid(7)
        assert sample[0] == 1.0 and label == 0
        assert st.audit()["cold_nbytes"] == 32 and st.nbytes == 0

    def test_demote_without_gid_just_removes(self):
        st = StorageArea()
        sid = st.add(_sample(1), 0)
        assert not st.demote(sid)
        assert st.cold_gids() == []

    def test_promote_reactivates(self):
        st = StorageArea()
        st.demote(st.add(_sample(3), 1, gid=3))
        sid = st.promote(3)
        assert st.sid_of(3) is not None and 3 not in st.cold_gids()
        assert st.get(sid)[1] == 1

    def test_hot_add_evicts_cold_oldest_first(self):
        st = StorageArea(capacity_bytes=96)  # room for 3 samples
        for g in range(3):
            st.demote(st.add(_sample(g), 0, gid=g))
        assert st.cold_gids() == [0, 1, 2]
        st.add(_sample(10), 0, gid=10)  # fits without eviction
        st.add(_sample(11), 0, gid=11)  # fits without eviction
        st.add(_sample(12), 0, gid=12)  # needs all cold slots evicted...
        assert st.cold_gids() == []
        assert sorted(st.hot_gids()) == [10, 11, 12]

    def test_partial_cold_eviction(self):
        st = StorageArea(capacity_bytes=96)
        for g in range(2):
            st.demote(st.add(_sample(g), 0, gid=g))
        st.add(_sample(10), 0, gid=10)
        # 2 cold + 1 hot = 96 B: adding one more hot evicts only gid 0.
        st.add(_sample(11), 0, gid=11)
        assert st.cold_gids() == [1]

    def test_hot_set_alone_overflowing_raises(self):
        st = StorageArea(capacity_bytes=64)
        st.add(_sample(0), 0, gid=0)
        st.add(_sample(1), 0, gid=1)
        with pytest.raises(StorageFullError):
            st.add(_sample(2), 0, gid=2)

    def test_hot_add_supersedes_cold_copy_of_same_gid(self):
        st = StorageArea()
        st.demote(st.add(_sample(1), 0, gid=5))
        st.add(_sample(2), 1, gid=5)
        assert 5 not in st.cold_gids()
        assert st.get_by_gid(5)[1] == 1

    def test_resize_evicts_cold_then_guards_hot(self):
        st = StorageArea(capacity_bytes=128)
        st.demote(st.add(_sample(0), 0, gid=0))
        st.add(_sample(1), 0, gid=1)
        st.resize(32)  # hot still fits; the cold replica must go
        assert st.cold_gids() == [] and st.capacity_bytes == 32
        with pytest.raises(StorageFullError):
            st.resize(16)

    def test_drop_cold(self):
        st = StorageArea()
        for g in range(3):
            st.demote(st.add(_sample(g), 0, gid=g))
        assert st.drop_cold() == 3
        assert st.audit()["cold_nbytes"] == 0


def _elastic_worker(
    comm, ds, labels, *, q, seed, epochs, victim, kill_epoch,
    capacity=None, drop_cold_first=False,
):
    """Drive PLS epochs, kill ``victim`` at ``kill_epoch``, recover."""
    strat = PartialLocalShuffle(q, capacity_bytes=capacity, ledger=ReplicaLedger())
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
            if drop_cold_first:
                strat.storage.drop_cold()
            report = rebalance(
                newcomm, strat.storage, strat.ledger,
                old_size=comm.size, dataset=ds,
            )
            strat.attach_comm(newcomm)
            comm = newcomm
            continue
        epoch += 1
    return {
        "hot": sorted(strat.storage.hot_gids()),
        "report": report,
        "nbytes": strat.storage.nbytes,
        "capacity": strat.storage.capacity_bytes,
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
        assert report["from_replica"] + report["from_source"] == report["lost_gids"] > 0

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

    def test_pfs_fallback_when_no_replicas_survive(self):
        ds, labels = make_ds(n=36)

        def worker(comm):
            return _elastic_worker(
                comm, ds, labels, q=0.25, seed=5, epochs=3,
                victim=0, kill_epoch=1, drop_cold_first=True,
            )

        out = run_spmd(worker, 3, deadline_s=120)
        survivors = [r for r in out if isinstance(r, dict)]
        held = sorted(g for r in survivors for g in r["hot"])
        assert held == list(range(36))
        report = survivors[0]["report"].as_dict()
        assert report["from_replica"] == 0
        assert report["from_source"] == report["lost_gids"] > 0

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
            strat.storage.drop_cold()
            with pytest.raises(RuntimeError, match="no surviving replica"):
                rebalance(
                    newcomm, strat.storage, strat.ledger,
                    old_size=comm.size, dataset=None,
                )
            return True

        out = run_spmd(worker, 2, deadline_s=120)
        assert out[0] is True


class TestCapacityBound:
    def test_survivors_respect_rebased_bound(self):
        n, workers, q = 48, 4, 0.25
        ds, labels = make_ds(n=n)
        sample_bytes = int(np.asarray(ds[0][0]).nbytes)
        cap = -(-int((1 + q) * n) // workers) * sample_bytes

        def worker(comm):
            return _elastic_worker(
                comm, ds, labels, q=q, seed=9, epochs=4,
                victim=3, kill_epoch=2, capacity=cap,
            )

        out = run_spmd(worker, workers, deadline_s=120)
        survivors = [r for r in out if isinstance(r, dict)]
        rebased = -(-cap * workers // (workers - 1))
        for r in survivors:
            assert r["capacity"] == rebased
            assert r["nbytes"] <= rebased
        held = sorted(g for r in survivors for g in r["hot"])
        assert held == list(range(n))


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
