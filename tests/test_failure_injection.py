"""Failure injection: crashes must propagate, never hang.

The launcher's abort machinery is what keeps a 16-rank in-process run
debuggable when one rank dies mid-collective or mid-exchange.  These tests
kill ranks at nasty moments and assert (a) the primary error surfaces,
(b) every other rank unblocks, (c) the whole thing finishes promptly.
"""

import numpy as np
import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import MPIAbort, RankFailed, run_spmd
from repro.shuffle import PartialLocalShuffle, Scheduler, StorageArea
from repro.train import TrainConfig, train_worker
from repro.train.experiments import make_experiment_data


@pytest.fixture(scope="module")
def problem():
    spec = SyntheticSpec(n_samples=128, n_classes=4, n_features=16, seed=2)
    return make_experiment_data(spec)


class TestTrainingCrashes:
    def test_rank_dies_during_training_epoch(self, problem):
        train_ds, labels, val_X, val_y = problem
        config = TrainConfig(model="mlp", epochs=4, batch_size=8,
                             in_shape=(16,), num_classes=4, seed=1)

        def worker(comm):
            if comm.rank == 1:
                raise MemoryError("injected OOM on rank 1")
            strat = PartialLocalShuffle(0.5)
            return train_worker(comm, config, strat, train_ds, labels, val_X, val_y)

        with pytest.raises(RankFailed) as ei:
            run_spmd(worker, 4, copy_on_send=False, deadline_s=60)
        assert isinstance(ei.value.failures[1], MemoryError)

    def test_rank_dies_mid_exchange(self):
        def worker(comm):
            st = StorageArea()
            for i in range(8):
                st.add(np.full(4, comm.rank, dtype=np.float32), comm.rank)
            sched = Scheduler(st, comm, fraction=0.5, seed=3)
            sched.scheduling(0)
            sched.communicate_chunk()
            if comm.rank == 2:
                raise RuntimeError("injected crash after partial post")
            sched.communicate()
            sched.synchronize()
            sched.clean_local_storage()
            return True

        with pytest.raises(RankFailed) as ei:
            run_spmd(worker, 4, deadline_s=60)
        assert 2 in ei.value.failures

    def test_secondary_aborts_not_reported_as_primary(self, problem):
        train_ds, labels, val_X, val_y = problem
        config = TrainConfig(model="mlp", epochs=3, batch_size=8,
                             in_shape=(16,), num_classes=4, seed=1)

        def worker(comm):
            if comm.rank == 0:
                raise ValueError("primary failure")
            strat = PartialLocalShuffle(0.3)
            return train_worker(comm, config, strat, train_ds, labels, val_X, val_y)

        with pytest.raises(RankFailed) as ei:
            run_spmd(worker, 4, copy_on_send=False, deadline_s=60)
        # Only the primary ValueError is reported; MPIAbort victims filtered.
        primaries = {
            r: e for r, e in ei.value.failures.items()
            if not isinstance(e, MPIAbort)
        }
        assert list(primaries) == [0]

    def test_crash_in_validation_phase(self, problem):
        train_ds, labels, val_X, val_y = problem
        config = TrainConfig(model="mlp", epochs=2, batch_size=8,
                             in_shape=(16,), num_classes=4, seed=1)

        def worker(comm):
            from repro.shuffle import LocalShuffle

            strat = LocalShuffle()
            history = train_worker(comm, config, strat, train_ds, labels,
                                   val_X, val_y)
            if comm.rank == 3:
                raise OSError("injected disk failure at checkpoint time")
            comm.barrier()
            return history

        with pytest.raises(RankFailed) as ei:
            run_spmd(worker, 4, copy_on_send=False, deadline_s=60)
        assert isinstance(ei.value.failures[3], OSError)


class TestNoHangGuarantee:
    def test_all_reported_quickly_even_with_blocked_peers(self):
        """A rank blocked in a recv while its peer crashes must be released
        by the abort within the poll interval, far before the deadline."""
        import time

        def worker(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.recv(source=0, tag=99)  # would block forever

        start = time.monotonic()
        with pytest.raises(RankFailed):
            run_spmd(worker, 3, deadline_s=60)
        assert time.monotonic() - start < 5.0
