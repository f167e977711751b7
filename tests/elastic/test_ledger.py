"""ReplicaLedger: live tracking, offline reconstruction, loss queries."""

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.data.partition import partition_indices
from repro.elastic import ReplicaLedger, reconstruct_ledger
from repro.mpi import run_spmd
from repro.shuffle import PartialLocalShuffle


def make_ds(n=48, classes=4, features=8, seed=0):
    X, y = make_classification(
        SyntheticSpec(n, classes, n_features=features, seed=seed)
    )
    return TensorDataset(X, y), y


def run_exchange(workers, n, epochs, q, seed):
    """Run PLS epochs with a ledger on each rank.

    Returns (per-rank ledgers, per-rank final hot gids, initial shards).
    """
    ds, labels = make_ds(n=n)
    shards = partition_indices(n, workers, scheme="contiguous", seed=seed)

    def worker(comm):
        strat = PartialLocalShuffle(q, ledger=ReplicaLedger())
        strat.setup(comm, ds, labels=labels, partition="contiguous", seed=seed)
        for e in range(epochs):
            strat.begin_epoch(e)
            for _ in strat.epoch_loader(e, 4):
                strat.on_iteration()
            strat.end_epoch()
        return strat.ledger, sorted(strat.storage.hot_gids())

    results = run_spmd(worker, workers, deadline_s=120)
    return [r[0] for r in results], [r[1] for r in results], shards


class TestLiveLedger:
    def test_seed_partition_matches_shards(self):
        ledgers, _, shards = run_exchange(3, 30, epochs=0, q=0.25, seed=5)
        for rank, shard in enumerate(shards):
            assert ledgers[0].held_by(rank) == sorted(int(i) for i in shard)

    def test_replicated_identically_on_all_ranks(self):
        ledgers, _, _ = run_exchange(4, 48, epochs=3, q=0.3, seed=7)
        for other in ledgers[1:]:
            assert ledgers[0] == other

    def test_ledger_tracks_actual_holdings(self):
        ledgers, holdings, _ = run_exchange(4, 48, epochs=3, q=0.3, seed=7)
        for rank, gids in enumerate(holdings):
            assert sorted(ledgers[0].held_by(rank)) == gids

    def test_every_sample_held_somewhere(self):
        ledgers, _, _ = run_exchange(3, 36, epochs=4, q=0.5, seed=1)
        assert ledgers[0].missing_from(range(3)) == []
        assert sorted(ledgers[0].holder) == list(range(36))

    def test_lost_to_and_missing_from(self):
        ledgers, holdings, _ = run_exchange(3, 24, epochs=2, q=0.25, seed=3)
        lost = ledgers[0].lost_to({1})
        assert lost == holdings[1]
        assert ledgers[0].missing_from({0, 2}) == lost

    def test_reassign(self):
        ledgers, holdings, _ = run_exchange(2, 12, epochs=1, q=0.25, seed=0)
        gid = holdings[1][0]
        ledgers[0].reassign(gid, 0)
        assert gid in ledgers[0].held_by(0)
        assert ledgers[0].lost_to({1}) == sorted(set(holdings[1]) - {gid})


class TestOfflineReconstruction:
    def test_reconstruction_matches_live(self):
        workers, n, epochs, q, seed = 4, 48, 5, 0.3, 11
        ledgers, _, shards = run_exchange(workers, n, epochs, q, seed)
        offline = reconstruct_ledger(seed, [[int(i) for i in s] for s in shards], epochs, q)
        assert offline == ledgers[0]

    def test_reconstruction_zero_epochs_is_partition(self):
        shards = [[int(i) for i in s] for s in partition_indices(20, 4, scheme="contiguous")]
        offline = reconstruct_ledger(9, shards, 0, 0.25)
        for rank, shard in enumerate(shards):
            assert offline.held_by(rank) == sorted(shard)

    def test_reconstruction_depends_on_seed(self):
        shards = [[int(i) for i in s] for s in partition_indices(40, 4, scheme="contiguous")]
        a = reconstruct_ledger(1, shards, 4, 0.5)
        b = reconstruct_ledger(2, shards, 4, 0.5)
        assert a != b
