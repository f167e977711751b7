"""Copy and buffer accounting of the framed exchange.

Each frame's samples are gathered once into a pooled ``PackedBatch`` and
copied once more out of it at install, so the world's copy counter must
sit at about twice the logical bytes sent — under the clean path, under
chaos, and under degraded-Q rollback.  Every frame is released back to the
pool (committed, rolled back or reclaimed alike), so the pool balances
after every run and recycles from the second epoch on.  Placement and
bytes are checked against the communicator-free oracle in
``tests/test_backend_parity.py`` and the per-sample recording in
``tests/shuffle/test_framing_golden.py``.
"""

import inspect
import time

import numpy as np
import pytest

from repro.faults import ChaosEngine, ChaosWorld
from repro.mpi import run_spmd
from repro.mpi.tags import EXCHANGE_DATA
from repro.shuffle import Scheduler, StorageArea
from repro.shuffle.exchange_plan import plan_frames

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


def _wire_worker(comm):
    """Three window-by-window epochs at Q = 1, recording the destination of
    every data message this rank posts, beside what the plan cuts."""
    sched = Scheduler(
        fill_storage(comm.rank, n=32), comm, fraction=1.0, batch_size=4, seed=3
    )
    dests = []
    isend = comm.isend

    def recording(obj, dest, tag=0):
        if EXCHANGE_DATA.contains(tag):
            dests.append(dest)
        return isend(obj, dest, tag)

    comm.isend = recording
    epochs = []
    for epoch in range(EPOCHS):
        sched.scheduling(epoch)
        while sched.communicate_chunk():
            pass
        sched.synchronize()
        sched.clean_local_storage()
        windows = plan_frames(sched.plan, sched.chunk_rounds, comm.rank)
        epochs.append({
            "rank": comm.rank,
            "k": sched.plan.rounds,
            "dests": list(dests),
            "frames": sum(len(sends) for sends, _owed, _kept in windows),
            "wire": sum(len(f.positions) for sends, _o, _k in windows for f in sends),
            "kept": sum(len(kept) for _s, _o, kept in windows),
        })
        dests.clear()
    return epochs, sched.total_kept_samples, sched.total_sent_samples


def run_exchange(chaos=None, backend="threads", **kw):
    factory = None
    if chaos is not None:
        engine = ChaosEngine(chaos, seed=1, slow_unit_s=0.005)

        def factory(size, **kwargs):  # noqa: F811
            return ChaosWorld(size, chaos=engine, **kwargs)

    out = run_spmd(
        make_worker(**kw), RANKS, deadline_s=120, world_factory=factory,
        backend=backend,
    )
    return list(out), out.world


def test_the_exchange_has_no_mode_flags():
    """One exchange path: neither layer takes the retired fork selectors."""
    from repro.shuffle import PartialLocalShuffle

    for cls in (Scheduler, PartialLocalShuffle):
        params = inspect.signature(cls.__init__).parameters
        assert "reliable" not in params and "batched" not in params, cls


class TestCopyAccounting:
    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_two_copies_per_sent_byte(self, backend):
        """A sample is copied exactly twice — the pack gather into its
        frame and the install copy out of it (the price of recycled frames
        and a physical storage bound); neither the wire, the shared-memory
        transport nor the CRC touches the bytes.  A third copy anywhere on
        the path would read 3x.  (1 KB samples: the envelope's per-sample
        header is noise, as at benchmark sizes.)"""
        out, world = run_exchange(dim=256, backend=backend)
        copied = world.total_bytes_copied()
        sent = sum(r["sent_bytes"] for r in out)
        assert 1.9 * sent <= copied <= 2.1 * sent, (copied, sent)

    def test_frame_bytes_follow_the_payload_nbytes_model(self):
        """Frames are sized from their columns, not by walking the triples:
        the totals must still be ``payload_nbytes`` of what left the rank —
        ``sample.nbytes + 8 + 8`` per entry, whether or not it has a gid.
        A round the plan keeps on its rank sends nothing."""
        from repro.mpi import payload_nbytes

        def worker(comm):
            storage = StorageArea()
            for i in range(8):  # every other sample is gid-tracked
                gid = comm.rank * 8 + i if i % 2 else None
                storage.add(np.full(5, i, dtype=np.float32), comm.rank, gid=gid)
            sched = Scheduler(storage, comm, fraction=1.0, batch_size=4, seed=4)
            sched.scheduling(0)
            # Q = 1: every stored sample is selected.
            held = [(*storage.get(sid), storage.gid_of(sid)) for sid in storage.ids()]
            marks = [int(sample[0]) for sample, _l, _g in held]
            sched.synchronize(*sched.communicate())
            sched.clean_local_storage()
            # What stayed is this rank's label; the rest left the rank.
            stayed = {int(s[0]) for _sid, s, label in storage.items() if label == comm.rank}
            left = [t for t, mark in zip(held, marks) if mark not in stayed]
            wire = int((sched.plan.destinations[:, comm.rank] != comm.rank).sum())
            return sched.total_sent_bytes, payload_nbytes(left), len(left), wire, {
                gid is None for _s, _l, gid in left
            }

        kinds = set()
        for total, model, left, wire, tracked in run_spmd(worker, RANKS, deadline_s=60):
            assert left == wire
            assert total == model == wire * (20 + 8 + 8)
            kinds |= tracked
        assert kinds == {True, False}

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_a_round_that_stays_never_goes_on_the_wire(self, backend):
        """At M = 2 and Q = 1 about half of a rank's plan rounds draw the
        rank itself.  Those rounds are kept in place: no data message is
        addressed to self, the data messages of an epoch are exactly the
        plan's ``(window, peer != self)`` frames, and kept plus wire rounds
        make up the epoch's ``k``."""
        out = run_spmd(_wire_worker, 2, backend=backend, deadline_s=120)
        for epochs, kept, sent in out:
            for e in epochs:
                assert e["dests"] and set(e["dests"]) == {1 - e["rank"]}
                assert len(e["dests"]) == e["frames"]
                assert e["kept"] > 0 and e["kept"] + e["wire"] == e["k"] == 32
            assert kept == sum(e["kept"] for e in epochs)
            assert sent == EPOCHS * 32

    def test_pool_balanced_after_clean_run(self):
        out, world = run_exchange()
        for r in out:
            assert r["pool_in_use"] == 0
        world.pool.assert_balanced()
        st = world.pool.stats()
        assert st["acquires"] > 0
        assert st["releases"] == st["acquires"]  # every frame went back
        assert st["adopts"] == 0    # nothing pins a frame: installs copy out
        assert st["hits"] > 0       # so later epochs recycle earlier frames


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


class TestFrameProtocol:
    def test_degraded_commit_is_whole_windows(self):
        """A deadline commit agrees on a prefix of whole windows: shard
        sizes hold, the gids stay a partition of 0..N-1 after every epoch
        (rolled back symmetrically), the deficit is repaid, and every
        rolled-back and reclaimed frame went back to the pool."""
        ranks, n_local, window = 4, 40, 8  # Q*b = 0.5 * 16

        def worker(comm):
            storage = StorageArea()
            for i in range(n_local):
                gid = comm.rank * n_local + i
                storage.add(np.full(4, gid, dtype=np.float32), label=0, gid=gid)
            sched = Scheduler(
                storage, comm, fraction=0.5, batch_size=16, seed=11,
                resend_timeout_s=0.05, deadline_s=0.15,
            )
            epochs = []
            for e in range(6):
                sched.scheduling(e)
                planned = sched.plan.rounds
                before = sched.total_sent_samples
                sched.synchronize(*sched.communicate())
                sched.clean_local_storage()
                epochs.append(
                    (planned, sched.total_sent_samples - before, storage.hot_gids())
                )
            comm.barrier()
            return epochs, sched.fault_stats()

        engine = ChaosEngine("slow:rank=1,x=40,epochs=1-2", seed=1, slow_unit_s=0.005)
        out = run_spmd(
            worker, ranks, deadline_s=120,
            world_factory=lambda size, **kw: ChaosWorld(size, chaos=engine, **kw),
        )
        degraded = 0
        for e in range(6):
            hot = [out[r][0][e][2] for r in range(ranks)]
            assert all(len(h) == n_local for h in hot)
            assert sorted(g for h in hot for g in h) == list(range(ranks * n_local))
            commits = {out[r][0][e][:2] for r in range(ranks)}
            assert len(commits) == 1, "ranks disagree on the commit"
            planned, committed = commits.pop()
            assert committed == planned or committed % window == 0
            degraded += committed < planned
        assert degraded >= 1, "straggler did not trigger degraded-Q"
        assert all(stats["q_deficit"] == 0 for _epochs, stats in out)
        out.world.pool.assert_balanced()
        st = out.world.pool.stats()
        assert st["releases"] == st["acquires"] and st["adopts"] == 0

    def test_slow_but_progressing_peer_is_never_nacked(self):
        """A timeout measures silence, not queue position: rank 0 posts
        everything and waits while rank 1 posts one window every 50 ms —
        0.4 s in all, twice the shortest NACK interval — and nothing was
        lost, so nothing may be NACKed or resent."""

        def worker(comm):
            sched = Scheduler(
                fill_storage(comm.rank, n=32), comm, fraction=1.0, batch_size=4,
                seed=3, resend_timeout_s=0.4,
            )
            sched.scheduling(0)
            if comm.rank == 1:
                while sched.communicate_chunk():
                    time.sleep(0.05)
            sched.synchronize(*sched.communicate())
            sched.clean_local_storage()
            return sched.fault_stats()

        for stats in run_spmd(worker, 2, deadline_s=60):
            assert stats["timeout_nacks"] == 0
            assert stats["resends"] == 0

    def test_dropped_frames_recover_within_the_attempt_budget(self):
        clean, _ = run_exchange(n_local=16)
        lossy, world = run_exchange(chaos="drop:p=0.3", n_local=16)
        for c, b in zip(lossy, clean):
            assert c["sig"] == b["sig"]
        assert sum(r["stats"]["resends"] for r in lossy) > 0
        assert all(r["stats"]["degraded_epochs"] == 0 for r in lossy)
        world.pool.assert_balanced()
