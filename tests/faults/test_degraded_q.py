"""Deadline-based degraded-Q: a straggler degrades the epoch, the deficit
is repaid, and the long-run exchange volume matches the nominal Q."""

import numpy as np
import pytest

from repro.faults import ChaosEngine, ChaosWorld
from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea

RANKS = 4
EPOCHS = 5
Q = 0.3
N_LOCAL = 20


def worker(comm):
    st = StorageArea()
    for i in range(N_LOCAL):
        st.add(np.array([comm.rank, i], dtype=np.float32), label=comm.rank)
    sched = Scheduler(
        st, comm, fraction=Q, batch_size=4, seed=11,
        resend_timeout_s=0.05, deadline_s=0.15,
    )
    for e in range(EPOCHS):
        sched.run_exchange(e)
    return {"n": len(st), "stats": sched.fault_stats()}


def run_with_straggler(profile="slow:rank=1,x=40,epochs=1-2"):
    engine = ChaosEngine(profile, seed=0, slow_unit_s=0.005)

    def factory(size, **kwargs):
        return ChaosWorld(size, chaos=engine, **kwargs)

    out = run_spmd(worker, RANKS, deadline_s=120, world_factory=factory)
    return list(out), engine.snapshot()


class TestDegradedQ:
    @pytest.fixture(scope="class")
    def run(self):
        return run_with_straggler()

    def test_straggler_epochs_degrade(self, run):
        out, injected = run
        assert injected.get("slow", 0) > 0
        for r in out:
            stats = r["stats"]
            assert stats["degraded_epochs"] >= 1
            eq = stats["effective_q"]
            assert len(eq) == EPOCHS
            # The slow window (epochs 1-2) commits less than nominal Q.
            assert min(eq[1], eq[2]) < Q

    def test_deficit_repaid_within_two_epochs(self, run):
        out, _ = run
        for r in out:
            eq = r["stats"]["effective_q"]
            # Once the straggler clears (epoch 3+), the scheduler offers
            # base + deficit: some later epoch exceeds nominal Q...
            assert max(eq[3], eq[4]) > Q
            # ...and by the end the books balance exactly: the deficit is
            # fully repaid and total exchanged volume matches Q * epochs.
            assert r["stats"]["q_deficit"] == 0
            assert sum(eq) == pytest.approx(Q * EPOCHS)

    def test_effective_q_uniform_across_ranks(self, run):
        # Degradation is a *collective* decision (min over verified
        # prefixes), so every rank reports the same trajectory and shard
        # sizes stay balanced.
        out, _ = run
        trajectories = {tuple(r["stats"]["effective_q"]) for r in out}
        assert len(trajectories) == 1
        assert all(r["n"] == N_LOCAL for r in out)

    def test_no_deadline_no_degradation(self):
        def clean_worker(comm):
            st = StorageArea()
            for i in range(N_LOCAL):
                st.add(np.array([comm.rank, i], dtype=np.float32), label=comm.rank)
            sched = Scheduler(
                st, comm, fraction=Q, batch_size=4, seed=11,
                resend_timeout_s=0.05,
            )
            for e in range(EPOCHS):
                sched.run_exchange(e)
            return sched.fault_stats()

        out = run_spmd(clean_worker, RANKS, deadline_s=120)
        for stats in out:
            assert stats["degraded_epochs"] == 0
            assert stats["effective_q"] == [pytest.approx(Q)] * EPOCHS
