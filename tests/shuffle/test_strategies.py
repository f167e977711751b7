"""Global / local / partial-local strategies driven through their hooks."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import run_spmd
from repro.shuffle import (
    GlobalShuffle,
    LocalShuffle,
    PartialLocalShuffle,
    strategy_from_name,
)


def make_ds(n=64, classes=4, features=8, seed=0):
    X, y = make_classification(
        SyntheticSpec(n, classes, n_features=features, seed=seed)
    )
    return TensorDataset(X, y), y


def drive(strategy_factory, size=4, epochs=2, batch=4, partition="random"):
    ds, labels = make_ds()

    def worker(comm):
        strat = strategy_factory()
        strat.setup(comm, ds, labels=labels, partition=partition, seed=5)
        label_sets = []
        for e in range(epochs):
            strat.begin_epoch(e)
            loader = strat.epoch_loader(e, batch)
            seen = []
            for xb, yb in loader:
                strat.on_iteration()
                seen.extend(yb.tolist())
            strat.end_epoch()
            label_sets.append(seen)
        return {"labels": label_sets, "stats": strat.stats()}

    return run_spmd(worker, size, deadline_s=120)


class TestGlobalShuffle:
    def test_epoch_covers_dataset_across_ranks(self):
        ds, labels = make_ds(n=64)

        def worker(comm):
            strat = GlobalShuffle()
            strat.setup(comm, ds, seed=3)
            loader = strat.epoch_loader(0, 4)
            return [yb.tolist() for _, yb in loader]

        out = run_spmd(worker, 4, deadline_s=60)
        counts = sum(len(b) for shard in out for b in shard)
        assert counts == 64  # drop_last with 64/4=16 per rank

    def test_order_changes_across_epochs(self):
        ds, _ = make_ds(n=32)

        def worker(comm):
            strat = GlobalShuffle()
            strat.setup(comm, ds, seed=3)
            e0 = [yb.tolist() for _, yb in strat.epoch_loader(0, 32)]
            e1 = [yb.tolist() for _, yb in strat.epoch_loader(1, 32)]
            return (e0, e1)

        out = run_spmd(worker, 1, deadline_s=60)
        assert out[0][0] != out[0][1]

    def test_storage_is_full_dataset(self):
        ds, _ = make_ds(n=64)

        def worker(comm):
            strat = GlobalShuffle()
            strat.setup(comm, ds, seed=3)
            return strat.storage_samples()

        assert all(v == 64 for v in run_spmd(worker, 4, deadline_s=60))

    def test_remote_reads_counted(self):
        out = drive(GlobalShuffle, size=4, epochs=2)
        for r in out:
            assert r["stats"]["remote_reads"] > 0
            assert r["stats"]["local_reads"] == 0


class TestLocalShuffle:
    def test_shard_is_static(self):
        out = drive(LocalShuffle, size=4, epochs=3)
        for r in out:
            sets = [sorted(labels) for labels in r["labels"]]
            assert sets[0] == sets[1] == sets[2]  # same multiset every epoch

    def test_order_varies_per_epoch(self):
        out = drive(LocalShuffle, size=2, epochs=2, batch=16)
        for r in out:
            assert r["labels"][0] != r["labels"][1]

    def test_no_remote_traffic(self):
        out = drive(LocalShuffle, size=4, epochs=2)
        for r in out:
            assert r["stats"]["remote_reads"] == 0
            assert r["stats"]["storage_samples"] == 16  # 64/4

    def test_class_sorted_shards_are_skewed(self):
        out = drive(LocalShuffle, size=4, epochs=1, partition="class_sorted")
        for r in out:
            labels = r["labels"][0]
            assert len(set(labels)) <= 2  # 4 classes over 4 workers


class TestPartialLocalShuffle:
    def test_shard_evolves(self):
        out = drive(lambda: PartialLocalShuffle(0.5), size=4, epochs=3,
                    partition="class_sorted")
        changed = 0
        for r in out:
            sets = [sorted(labels) for labels in r["labels"]]
            if sets[0] != sets[-1]:
                changed += 1
        assert changed >= 3  # nearly every worker's shard must differ

    def test_storage_peak_bounded(self):
        out = drive(lambda: PartialLocalShuffle(0.5), size=4, epochs=2)
        for r in out:
            assert r["stats"]["storage_samples"] <= int(round(1.5 * 16))

    def test_exchange_volume_matches_q(self):
        out = drive(lambda: PartialLocalShuffle(0.25), size=4, epochs=2)
        k = round(0.25 * 16)
        for r in out:
            assert r["stats"]["sent_samples"] == 2 * k
            assert r["stats"]["recv_samples"] == 2 * k

    def test_q_zero_behaves_like_local(self):
        out = drive(lambda: PartialLocalShuffle(0.0), size=4, epochs=2)
        for r in out:
            assert r["stats"]["sent_samples"] == 0
            sets = [sorted(labels) for labels in r["labels"]]
            assert sets[0] == sets[1]

    def test_q_validation(self):
        with pytest.raises(ValueError):
            PartialLocalShuffle(1.0001)

    def test_begin_epoch_twice_rejected(self):
        ds, labels = make_ds()

        def worker(comm):
            strat = PartialLocalShuffle(0.5)
            strat.setup(comm, ds, labels=labels, seed=5)
            strat.begin_epoch(0)
            with pytest.raises(RuntimeError):
                strat.begin_epoch(1)
            strat.end_epoch()
            return True

        assert all(run_spmd(worker, 2, deadline_s=60))

    def test_end_without_begin_rejected(self):
        ds, labels = make_ds()

        def worker(comm):
            strat = PartialLocalShuffle(0.5)
            strat.setup(comm, ds, labels=labels, seed=5)
            with pytest.raises(RuntimeError):
                strat.end_epoch()
            return True

        assert all(run_spmd(worker, 1, deadline_s=60))

    def test_blocking_mode(self):
        class Blocking(PartialLocalShuffle):
            def on_iteration(self):
                """Post nothing under compute: end_epoch posts it all."""

        out = drive(lambda: Blocking(0.5), size=4, epochs=2)
        k = round(0.5 * 16)
        for r in out:
            assert r["stats"]["sent_samples"] == 2 * k


class TestStrategyFromName:
    def test_parse(self):
        assert isinstance(strategy_from_name("global"), GlobalShuffle)
        assert isinstance(strategy_from_name("local"), LocalShuffle)
        pls = strategy_from_name("partial-0.3")
        assert isinstance(pls, PartialLocalShuffle)
        assert pls.q == 0.3

    def test_unknown(self):
        with pytest.raises(ValueError):
            strategy_from_name("quantum")
