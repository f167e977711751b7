"""Scheduler extensions: the uncontrolled-cache baseline (§VI-A)."""

import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import run_spmd
from repro.shuffle import UncontrolledCachedShuffle


class TestUncontrolledCachedBaseline:
    @pytest.fixture
    def problem(self):
        X, y = make_classification(SyntheticSpec(96, 4, n_features=8, seed=1))
        return TensorDataset(X, y), y

    def test_refresh_varies_per_epoch(self, problem):
        ds, labels = problem

        def worker(comm):
            strat = UncontrolledCachedShuffle(0.3)
            strat.setup(comm, ds, labels=labels, seed=3)
            for e in range(8):
                strat.begin_epoch(e)
                list(strat.epoch_loader(e, 8))
                strat.end_epoch()
            return strat.stats()

        out = run_spmd(worker, 4, deadline_s=120)
        for r in out:
            # The refresh counts fluctuate epoch to epoch (uncontrolled).
            assert r["refresh_std"] > 0
            assert r["remote_reads"] == sum(r["refresh_counts"])

    def test_traffic_imbalanced_across_workers(self, problem):
        """Unlike PLS, total remote traffic differs between workers."""
        ds, labels = problem

        def worker(comm):
            strat = UncontrolledCachedShuffle(0.3)
            strat.setup(comm, ds, labels=labels, seed=3)
            for e in range(6):
                strat.begin_epoch(e)
                strat.end_epoch()
            return strat.remote_reads

        out = run_spmd(worker, 4, deadline_s=120)
        assert len(set(out)) > 1

    def test_shard_size_constant(self, problem):
        ds, labels = problem

        def worker(comm):
            strat = UncontrolledCachedShuffle(0.4)
            strat.setup(comm, ds, labels=labels, seed=3)
            n0 = len(strat.storage)
            for e in range(4):
                strat.begin_epoch(e)
                strat.end_epoch()
            return (n0, len(strat.storage))

        out = run_spmd(worker, 4, deadline_s=120)
        for n0, n1 in out:
            assert n0 == n1

    def test_mean_refresh_validation(self):
        with pytest.raises(ValueError):
            UncontrolledCachedShuffle(0.6)
