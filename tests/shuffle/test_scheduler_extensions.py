"""Scheduler extensions: grouped messages (§III-E), selection policies
(§IV-B future work), and the uncontrolled-cache baseline (§VI-A)."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea, UncontrolledCachedShuffle


def fill_storage(rank, n=16, dim=4):
    st = StorageArea()
    for i in range(n):
        st.add(np.array([rank, i, 0, 0][:dim], dtype=np.float32), label=rank)
    return st


class TestGranularity:
    def run(self, granularity, q=0.5, n_local=16, size=4, epochs=2):
        def worker(comm):
            storage = fill_storage(comm.rank, n=n_local)
            sched = Scheduler(
                storage, comm, fraction=q, seed=3, granularity=granularity
            )
            for e in range(epochs):
                sched.run_exchange(e)
            return {
                "n": len(storage),
                "sent": sched.total_sent_samples,
                "recv": sched.total_recv_samples,
                "owners": sorted(int(s[0]) for _, s, _ in storage.items()),
            }

        return run_spmd(worker, size, deadline_s=120)

    @pytest.mark.parametrize("granularity", [1, 2, 3, 4, 8])
    def test_sample_conservation_any_granularity(self, granularity):
        out = self.run(granularity)
        all_owners = sorted(o for r in out for o in r["owners"])
        assert all_owners == sorted([rank for rank in range(4) for _ in range(16)])
        for r in out:
            assert r["n"] == 16

    def test_samples_per_epoch_unchanged_by_grouping(self):
        for g in (1, 4):
            out = self.run(g, q=0.5, epochs=1)
            k = round(0.5 * 16)
            assert all(r["sent"] == k for r in out)
            assert all(r["recv"] == k for r in out)

    def test_message_count_reduced(self):
        def worker(comm, g):
            sched = Scheduler(
                fill_storage(comm.rank, n=16), comm, fraction=0.5, seed=3,
                granularity=g,
            )
            sched.scheduling(0)
            rounds = sched.plan.rounds
            sched.communicate()
            sched.synchronize()
            sched.clean_local_storage()
            return rounds

        assert run_spmd(worker, 2, args=(1,), deadline_s=60)[0] == 8
        assert run_spmd(worker, 2, args=(4,), deadline_s=60)[0] == 2
        assert run_spmd(worker, 2, args=(3,), deadline_s=60)[0] == 3  # ceil(8/3)

    def test_invalid_granularity(self):
        def worker(comm):
            with pytest.raises(ValueError):
                Scheduler(fill_storage(comm.rank), comm, fraction=0.5,
                          granularity=0, seed=1)
            return True

        assert all(run_spmd(worker, 1, deadline_s=60))


class TestSelectionPolicies:
    def test_stale_evicts_oldest_first(self):
        """After the first exchange, 'stale' must prefer original samples
        over freshly received ones."""

        def worker(comm):
            storage = fill_storage(comm.rank, n=8)
            sched = Scheduler(storage, comm, fraction=0.5, seed=5,
                              selection="stale", allow_self=False)
            originals = set(storage.ids())
            sched.run_exchange(0)
            fresh_ids = set(storage.ids()) - originals  # epoch-0 arrivals
            before = set(storage.ids())
            sched.run_exchange(1)
            leaving = before - set(storage.ids())
            # k=4 leave; fresh (epoch-0 arrivals) were 4; the 4 originals
            # must all be among the leavers.
            return leaving.isdisjoint(fresh_ids)

        out = run_spmd(worker, 4, deadline_s=60)
        assert all(out)

    def test_invalid_selection(self):
        def worker(comm):
            with pytest.raises(ValueError):
                Scheduler(fill_storage(comm.rank), comm, fraction=0.5,
                          selection="vibes", seed=1)
            return True

        assert all(run_spmd(worker, 1, deadline_s=60))

    def test_random_selection_still_conserves(self):
        def worker(comm):
            storage = fill_storage(comm.rank, n=12)
            sched = Scheduler(storage, comm, fraction=1.0, seed=5,
                              selection="stale")
            for e in range(3):
                sched.run_exchange(e)
            return sorted(int(s[0]) for _, s, _ in storage.items())

        out = run_spmd(worker, 3, deadline_s=60)
        all_owners = sorted(o for r in out for o in r)
        assert all_owners == sorted([rank for rank in range(3) for _ in range(12)])


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
