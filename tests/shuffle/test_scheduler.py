"""Scheduler (Figure 3/4 exchange manager) over the simulated MPI."""

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea


def fill_storage(rank, n=8, dim=4):
    """Storage whose samples encode (owner_rank, index) for provenance checks."""
    st = StorageArea()
    for i in range(n):
        st.add(np.array([rank, i, 0, 0][:dim], dtype=np.float32), label=rank)
    return st


def run_epochs(size, q, epochs, n_local=8, allow_self=True, chunked=False):
    def worker(comm):
        storage = fill_storage(comm.rank, n=n_local)
        sched = Scheduler(storage, comm, fraction=q, batch_size=4, seed=11, allow_self=allow_self)
        for e in range(epochs):
            if chunked:
                sched.scheduling(e)
                while sched.communicate_chunk():
                    pass
                sched.synchronize()
                sched.clean_local_storage()
            else:
                sched.run_exchange(e)
        owners = sorted(int(s[0]) for _, s, _ in storage.items())
        return {
            "n": len(storage),
            "owners": owners,
            "peak": storage.peak_count,
            "sent": sched.total_sent_samples,
            "recv": sched.total_recv_samples,
        }

    return run_spmd(worker, size, deadline_s=120)


class TestExchangeCorrectness:
    def test_shard_size_invariant(self):
        out = run_epochs(4, q=0.25, epochs=3)
        assert all(r["n"] == 8 for r in out)

    def test_global_sample_conservation(self):
        """No sample is lost or duplicated: the global multiset of owner
        tags is preserved across epochs."""
        out = run_epochs(4, q=0.5, epochs=4)
        all_owners = sorted(o for r in out for o in r["owners"])
        assert all_owners == sorted([rank for rank in range(4) for _ in range(8)])

    def test_q_zero_is_noop(self):
        out = run_epochs(4, q=0.0, epochs=2)
        for rank, r in enumerate(out):
            assert r["owners"] == [rank] * 8
            assert r["sent"] == 0

    def test_samples_actually_move(self):
        out = run_epochs(4, q=0.5, epochs=3, allow_self=False)
        moved = sum(1 for rank, r in enumerate(out) for o in r["owners"] if o != rank)
        assert moved > 0

    def test_peak_storage_bound(self):
        """Peak storage must respect the paper's (1+Q) * N/M bound."""
        for q in (0.25, 0.5, 1.0):
            out = run_epochs(4, q=q, epochs=2)
            bound = int(round((1 + q) * 8))
            for r in out:
                assert r["peak"] <= bound, (q, r["peak"], bound)

    def test_send_recv_balance(self):
        out = run_epochs(5, q=0.4, epochs=3)
        k = round(0.4 * 8)
        for r in out:
            assert r["sent"] == 3 * k
            assert r["recv"] == 3 * k

    def test_chunked_equals_oneshot_storage_evolution(self):
        """Posting per-iteration chunks (Figure 4 overlap) must move exactly
        the same samples as a single communicate() burst."""
        a = run_epochs(4, q=0.5, epochs=2, chunked=False)
        b = run_epochs(4, q=0.5, epochs=2, chunked=True)
        for ra, rb in zip(a, b):
            assert ra["owners"] == rb["owners"]


class TestUnevenShards:
    def test_uneven_shard_sizes_agree_on_rounds(self):
        """Regression: shard sizes differing by one (N mod M != 0) must not
        desynchronise the round count — a rank posting an extra irecv for a
        send its peer never issues deadlocks the epoch."""

        def worker(comm):
            # Ranks 0,1 get 103 samples; the rest get 102 (the 614/6 case).
            n = 103 if comm.rank < 2 else 102
            storage = fill_storage(comm.rank, n=n)
            sched = Scheduler(storage, comm, fraction=0.5, seed=13)
            for e in range(3):
                sched.run_exchange(e)
            return (len(storage), sched.total_sent_samples)

        out = run_spmd(worker, 6, deadline_s=60)
        sent = {r[1] for r in out}
        assert len(sent) == 1, "all ranks must exchange the same count"
        # Shard sizes preserved per rank.
        assert [r[0] for r in out] == [103, 103, 102, 102, 102, 102]

    def test_rounds_is_global_minimum(self):
        def worker(comm):
            n = 10 if comm.rank == 0 else 100
            sched = Scheduler(fill_storage(comm.rank, n=n), comm, fraction=0.5, seed=1)
            sched.scheduling(0)
            rounds = sched.rounds
            sched.communicate()
            sched.synchronize()
            sched.clean_local_storage()
            return rounds

        out = run_spmd(worker, 3, deadline_s=60)
        assert all(r == 5 for r in out)  # min(round(0.5*10), round(0.5*100))


class TestSchedulerStateMachine:
    def test_synchronize_before_communicate_rejected(self):
        def worker(comm):
            sched = Scheduler(fill_storage(comm.rank), comm, fraction=0.5, seed=1)
            sched.scheduling(0)
            with pytest.raises(RuntimeError, match="rounds posted"):
                sched.synchronize()
            # Clean up so no messages dangle.
            sched.communicate()
            sched.synchronize()
            sched.clean_local_storage()
            return True

        assert all(run_spmd(worker, 2, deadline_s=60))

    def test_clean_before_synchronize_rejected(self):
        def worker(comm):
            sched = Scheduler(fill_storage(comm.rank), comm, fraction=0.5, seed=1)
            sched.scheduling(0)
            sched.communicate()
            with pytest.raises(RuntimeError, match="synchronize"):
                sched.clean_local_storage()
            sched.synchronize()
            sched.clean_local_storage()
            return True

        assert all(run_spmd(worker, 2, deadline_s=60))

    def test_double_scheduling_rejected(self):
        def worker(comm):
            sched = Scheduler(fill_storage(comm.rank), comm, fraction=0.5, seed=1)
            sched.scheduling(0)
            with pytest.raises(RuntimeError, match="not finished"):
                sched.scheduling(1)
            sched.communicate()
            sched.synchronize()
            sched.clean_local_storage()
            return True

        assert all(run_spmd(worker, 2, deadline_s=60))

    def test_methods_require_scheduling(self):
        def worker(comm):
            sched = Scheduler(fill_storage(comm.rank), comm, fraction=0.5, seed=1)
            with pytest.raises(RuntimeError, match="scheduling"):
                sched.communicate()
            return True

        assert all(run_spmd(worker, 2, deadline_s=60))

    def test_fraction_validation(self):
        def worker(comm):
            with pytest.raises(ValueError):
                Scheduler(fill_storage(comm.rank), comm, fraction=1.5, seed=1)
            with pytest.raises(ValueError):
                Scheduler(fill_storage(comm.rank), comm, fraction=0.5, batch_size=0, seed=1)
            return True

        assert all(run_spmd(worker, 1, deadline_s=60))

    def test_chunk_rounds_is_qb(self):
        def worker(comm):
            sched = Scheduler(
                fill_storage(comm.rank, n=100), comm, fraction=0.1, batch_size=40, seed=1
            )
            return sched.chunk_rounds

        out = run_spmd(worker, 1, deadline_s=60)
        assert out[0] == 4  # Q*b = 0.1*40

    def test_bytes_accounting(self):
        out = run_epochs(2, q=0.5, epochs=1)
        # 4 samples sent x 16 bytes each (4 float32).
        # (accounting lives in the scheduler stats, validated via sent count)
        assert all(r["sent"] == 4 for r in out)
