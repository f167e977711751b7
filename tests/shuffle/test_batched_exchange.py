"""Copy and buffer accounting of the zero-copy exchange.

Each round's samples are gathered once into a pooled ``PackedBatch`` and
never copied again, so the world's copy counter must stay at about the
logical bytes sent — under the clean path, under chaos, and under
degraded-Q rollback.  Buffer-pool accounting must balance after every run
(no leaked exchange buffers).  Placement and bytes are checked against the
communicator-free oracle in ``tests/test_backend_parity.py``.
"""

import inspect

import numpy as np

from repro.faults import ChaosEngine, ChaosWorld
from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea

RANKS = 4
EPOCHS = 3


def fill_storage(rank, n=8, dim=4):
    st = StorageArea()
    for i in range(n):
        sample = np.zeros(dim, dtype=np.float32)
        sample[:2] = rank, i
        st.add(sample, label=rank)
    return st


def shard_signature(storage):
    return sorted(
        (int(label), sample.tobytes()) for _, sample, label in storage.items()
    )


def make_worker(*, q=0.5, epochs=EPOCHS, deadline_s=None, n_local=8, dim=4):
    def worker(comm):
        storage = fill_storage(comm.rank, n=n_local, dim=dim)
        sched = Scheduler(
            storage, comm, fraction=q, batch_size=4, seed=11,
            resend_timeout_s=0.05, deadline_s=deadline_s,
        )
        for e in range(epochs):
            sched.run_exchange(e)
        # The pool is world-shared: wait until every rank has applied its
        # last commit before sampling the balance.
        comm.barrier()
        return {
            "sig": shard_signature(storage),
            "sent": sched.total_sent_samples,
            "sent_bytes": sched.total_sent_bytes,
            "pool_in_use": comm.pool.in_use(),
            "stats": sched.fault_stats(),
        }

    return worker


def run_exchange(chaos=None, **kw):
    factory = None
    if chaos is not None:
        engine = ChaosEngine(chaos, seed=1, slow_unit_s=0.005)

        def factory(size, **kwargs):  # noqa: F811
            return ChaosWorld(size, chaos=engine, **kwargs)

    out = run_spmd(
        make_worker(**kw), RANKS, deadline_s=120, world_factory=factory
    )
    return list(out), out.world


def test_the_exchange_has_no_mode_flags():
    """One exchange path: neither layer takes the retired fork selectors."""
    from repro.shuffle import PartialLocalShuffle

    for cls in (Scheduler, PartialLocalShuffle):
        params = inspect.signature(cls.__init__).parameters
        assert "reliable" not in params and "batched" not in params, cls


class TestCopyAccounting:
    def test_one_gather_copy_per_sent_byte(self):
        """A round is copied exactly once — the pack gather into its pooled
        envelope; neither the wire nor the CRC touches the bytes again.  A
        second copy anywhere on the path would read 2x.  (1 KB samples: the
        envelope's per-sample header is noise, as at benchmark sizes.)"""
        out, world = run_exchange(dim=256)
        copied = world.total_bytes_copied()
        sent = sum(r["sent_bytes"] for r in out)
        assert copied > 0  # the pack gather is still counted honestly
        assert copied <= 1.1 * sent, (copied, sent)

    def test_pool_balanced_after_clean_run(self):
        out, world = run_exchange()
        for r in out:
            assert r["pool_in_use"] == 0
        world.pool.assert_balanced()
        st = world.pool.stats()
        assert st["adopts"] > 0     # receivers adopted committed envelopes
        assert st["acquires"] > 0


class TestFaultPaths:
    def test_chaos_recovery_bit_identical(self):
        clean, _ = run_exchange()
        chaotic, world = run_exchange(chaos="corrupt:p=0.05;flaky-read:p=0.1")
        for c, b in zip(chaotic, clean):
            assert c["sig"] == b["sig"]
        recovered = sum(r["stats"]["crc_rejects"] for r in chaotic)
        assert recovered > 0, "chaos profile injected nothing observable"
        world.pool.assert_balanced()

    def test_degraded_q_rollback_releases_buffers(self):
        """A deadline abort rolls back uncommitted rounds; the pooled
        envelopes of those rounds must be settled, not leaked."""
        out, world = run_exchange(
            chaos="slow:rank=1,x=40,epochs=1-2",
            q=0.3, epochs=5, n_local=20, deadline_s=0.15,
        )
        degraded = sum(r["stats"]["degraded_epochs"] for r in out)
        assert degraded >= 1, "straggler did not trigger degraded-Q"
        for r in out:
            assert r["pool_in_use"] == 0
        world.pool.assert_balanced()
