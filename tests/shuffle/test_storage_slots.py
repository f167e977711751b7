"""Slot ownership: every hot entry is a row of a slot the storage area owns.

A hypothesis state machine drives every mutating entry point of
``StorageArea`` against a dict-of-copies model and checks, after every
step, that each entry still reads back the model's bytes — a slot reused
under a live entry, or a caller's array kept instead of copied, shows up
as a wrong byte — that ``audit()`` is clean, and that the slots allocated
never exceed the most ever in use plus one chunk — including while a
block the exchange staged under compute waits, across other installs and
removals, to be installed or rolled back.  Around it: the block path
through ``DiskStorageArea``, the view-validity rule under the
by-reference ``threads`` transport, and the paper's ``(1+Q)·N/M`` counted
in physical rows after a training run on either backend.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.data import SyntheticSpec
from repro.elastic import ReplicaLedger
from repro.elastic.migration import TRANSFER, migrate
from repro.mpi import SampleBlock, run_spmd
from repro.shuffle import DiskStorageArea, Scheduler, StorageArea, strategy_from_name
from repro.shuffle.exchange_plan import ExchangePlan
from repro.train import TrainConfig, make_experiment_data, train_worker

# Two slot classes of the same byte size, so byte counts stay in whole
# samples while two pools are exercised.
CLASSES = ((np.dtype(np.float32), (4,)), (np.dtype(np.int16), (2, 4)))
SIZE = 16


def slots(area):
    """The slot counts of ``area.audit()``: allocated = free + staged + live."""
    counts = area.audit()
    return {k: counts[k] for k in ("allocated", "free", "staged", "live", "chunks")}


def _block(cls: int, n: int, fill: int) -> np.ndarray:
    dtype, shape = CLASSES[cls]
    values = np.arange(n * int(np.prod(shape))).reshape(n, *shape) + 100 * fill
    return values.astype(dtype)


class SlotOwnership(RuleBasedStateMachine):
    """``StorageArea`` against a model that keeps a private copy of every
    entry's bytes."""

    def __init__(self):
        super().__init__()
        self.area = StorageArea()
        # sid -> [bytes, label, gid, slot class].
        self.hot: dict[int, list] = {}
        self.next_gid = 0
        self.fill = 0
        self.peak = [0, 0]  # most slots of each class in use at once
        # The block staged early: (staged rows, model entries, class).
        self.early = None

    # ------------------------------------------------------------ the model
    def _in_use(self, cls, staged=0):
        owned = sum(e[3] == cls for e in self.hot.values())
        if self.early is not None and self.early[2] == cls:
            staged += len(self.early[1])
        self.peak[cls] = max(self.peak[cls], owned + staged)

    def _fresh_gid(self, tracked):
        if not tracked:
            return None
        self.next_gid += 1
        return self.next_gid

    def _stage(self, block, labels, gids):
        return self.area.stage(
            SampleBlock(
                block, labels,
                np.array([-1 if g is None else g for g in gids], dtype=np.int64),
            )
        )

    # ---------------------------------------------------------------- rules
    @rule(cls=st.integers(0, 1), tracked=st.booleans(), label=st.integers(0, 9))
    def add(self, cls, tracked, label):
        """One sample claims a slot of its class; the caller's array is
        copied, so changing it afterwards changes no entry."""
        self.fill += 1
        sample = _block(cls, 1, self.fill)[0]
        gid = self._fresh_gid(tracked)
        sid = self.area.add(sample, label, gid=gid)
        self.hot[sid] = [sample.tobytes(), label, gid, cls]
        sample[...] = -1

    @rule(classes=st.lists(st.integers(0, 1), min_size=1, max_size=6))
    def add_many_of_the_callers_arrays(self, classes):
        """What setup does: the caller's arrays, of any classes, with one
        ``add_many`` — each class's samples claimed at once."""
        self.fill += 1
        samples = [_block(cls, 1, self.fill + i)[0] for i, cls in enumerate(classes)]
        gids = [self._fresh_gid(i % 2 == 0) for i in range(len(classes))]
        sids = self.area.add_many(zip(samples, range(len(classes)), gids))
        for label, (sid, sample, cls) in enumerate(zip(sids, samples, classes)):
            self.hot[sid] = [sample.tobytes(), label, gids[label], cls]
            sample[...] = -1

    @rule(
        cls=st.integers(0, 1), n=st.integers(1, 5), tracked=st.booleans(),
        as_rows=st.booleans(),
    )
    def block_install(self, cls, n, tracked, as_rows):
        """What the exchange does: stage a frame's block, then register
        the rows."""
        self.fill += 1
        block = _block(cls, n, self.fill)
        gids = [self._fresh_gid(tracked) for _ in range(n)]
        labels = np.arange(n) % 7
        staged = self._stage(list(block) if as_rows else block, labels, gids)
        self._in_use(cls, staged=n)
        entries = [
            [block[i].tobytes(), int(labels[i]), gids[i], cls] for i in range(n)
        ]
        self._install(staged, entries)

    def _install(self, staged, entries):
        sids = self.area.add_many(staged)
        assert len(sids) == len(entries)
        self.hot.update(zip(sids, entries))

    @precondition(lambda self: self.early is None)
    @rule(cls=st.integers(0, 1), n=st.integers(1, 4))
    def stage_early(self, cls, n):
        """What a sweep does under compute: stage a verified frame and leave
        it staged while other installs and removals go on."""
        self.fill += 1
        block = _block(cls, n, self.fill)
        gids = [self._fresh_gid(i % 2 == 0) for i in range(n)]
        staged = self._stage(block, np.zeros(n, dtype=np.int64), gids)
        entries = [[block[i].tobytes(), 0, gids[i], cls] for i in range(n)]
        self.early = (staged, entries, cls)
        self._in_use(cls)

    @precondition(lambda self: self.early is not None)
    @rule(commit=st.booleans())
    def settle_early(self, commit):
        """The epoch's commit: the early block is installed, or its window
        fell beyond the agreed prefix and it is rolled back — its slots are
        free again."""
        staged, entries, cls = self.early
        self.early = None
        if commit:
            self._install(staged, entries)
        else:
            self.area.unstage(staged)
        self._in_use(cls)

    @rule(cls=st.integers(0, 1), n=st.integers(1, 4))
    def stage_then_abort(self, cls, n):
        """An exchange aborted between commit and install: every row gives
        its slot back (the senders still hold those samples)."""
        self.fill += 1
        block = _block(cls, n, self.fill)
        gids = [self._fresh_gid(i % 2 == 0) for i in range(n)]
        staged = self._stage(block, np.zeros(n, dtype=np.int64), gids)
        self._in_use(cls, staged=n)
        self.area.unstage(staged)
        self._in_use(cls)

    @precondition(lambda self: self.hot)
    @rule(data=st.data())
    def remove(self, data):
        sid = data.draw(st.sampled_from(sorted(self.hot)))
        self.area.remove(sid)
        del self.hot[sid]

    @precondition(lambda self: self.hot)
    @rule(data=st.data())
    def re_add_a_view(self, data):
        """A view handed back to ``add`` gets its own bytes: removing the
        entry it came from (and reusing the slot) must not reach it."""
        sid = data.draw(st.sampled_from(sorted(self.hot)))
        view, label = self.area.get(sid)
        gid = self._fresh_gid(True)
        new = self.area.add(view, label, gid=gid)
        self.hot[new] = [self.hot[sid][0], label, gid, self.hot[sid][3]]

    # ----------------------------------------------------------- invariants
    @invariant()
    def entries_read_back_the_models_bytes(self):
        area = self.area
        assert area.ids() == list(self.hot)
        for sid, (payload, label, gid, _cls) in self.hot.items():
            sample, got_label = area.get(sid)
            assert sample.tobytes() == payload and got_label == label
            assert area.gid_of(sid) == gid
        assert area.nbytes == SIZE * len(self.hot)

    @invariant()
    def audit_is_clean_and_slots_are_bounded(self):
        self.area.audit()
        counts = slots(self.area)
        early = 0 if self.early is None else len(self.early[1])
        assert counts["staged"] == early
        assert counts["allocated"] == counts["free"] + counts["live"] + early
        for cls, key in enumerate(CLASSES):
            self._in_use(cls)
            pool = self.area._pools.get(key)
            if pool is not None:
                assert pool.per * len(pool.chunks) <= self.peak[cls] + pool.per


SlotOwnership.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSlotOwnership = SlotOwnership.TestCase


# ------------------------------------------------------------ unit behaviour
def _install(area, block, gids, labels=None):
    n = len(block)
    labels = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels)
    staged = area.stage(SampleBlock(block, labels, np.asarray(gids, dtype=np.int64)))
    return area.add_many(staged)


class TestSlots:
    def test_lowest_free_slot_first_and_reuse_in_place(self):
        area = StorageArea()
        sids = _install(area, _block(0, 4, 1), [0, 1, 2, 3])
        rows = [area.get(sid)[0] for sid in sids]
        assert all(not row.flags.writeable for row in rows)
        area.remove(sids[2])
        area.remove(sids[0])
        (new,) = _install(area, _block(0, 1, 2), [9])
        # The lowest vacated slot is refilled, in place: same row object,
        # new bytes, and no growth.
        assert area.get(new)[0] is rows[0]
        np.testing.assert_array_equal(rows[0], _block(0, 1, 2)[0])
        np.testing.assert_array_equal(rows[1], _block(0, 4, 1)[1])
        assert slots(area) == {
            "allocated": 4, "free": 1, "staged": 0, "live": 3, "chunks": 1
        }

    def test_first_chunk_is_sized_by_the_shard(self):
        area = StorageArea()
        shard = np.zeros((10, 4), np.float32)
        area.add_many((shard[i], 0, i) for i in range(10))
        assert slots(area) == {
            "allocated": 10, "free": 0, "staged": 0, "live": 10, "chunks": 1
        }
        # An epoch's arrivals come in while its departures still live: one
        # more chunk of the shard's size, its rows made only as used.
        _install(area, _block(0, 2, 1), [100, 101])
        assert slots(area) == {
            "allocated": 20, "free": 8, "staged": 0, "live": 12, "chunks": 2
        }
        assert len(area._pools[CLASSES[0]].rows) == 12

    def test_the_callers_array_is_copied_not_kept(self):
        area = StorageArea()
        shard = np.arange(12, dtype=np.float32).reshape(3, 4)
        one = np.full(4, 7, dtype=np.float32)
        sids = area.add_many((shard[i], i, i) for i in range(3))
        sid = area.add(one, 0, gid=9)
        shard[...] = -1
        one[...] = -1
        for i, s in enumerate(sids):
            np.testing.assert_array_equal(area.get(s)[0], np.arange(4) + 4 * i)
            assert not np.shares_memory(area.get(s)[0], shard)
        np.testing.assert_array_equal(area.get(sid)[0], np.full(4, 7))

    def test_unstage_frees_the_rows_slots(self):
        area = StorageArea()
        staged = area.stage(
            SampleBlock(_block(0, 2, 5), np.array([1, 2]), np.array([40, -1]))
        )
        assert slots(area)["staged"] == 2
        area.unstage(staged)
        assert len(area) == 0 and area.sid_of(40) is None
        assert slots(area) == {
            "allocated": 2, "free": 2, "staged": 0, "live": 0, "chunks": 1
        }
        # The freed slots are the next block's.
        _install(area, _block(0, 2, 6), [41, 42])
        assert slots(area)["allocated"] == 2
        area.audit()

    def test_a_list_of_mixed_samples_is_staged_by_class(self):
        samples = [np.arange(3.0), np.array(5, dtype=np.int64), np.arange(3.0) + 1]
        block = SampleBlock(samples, np.array([0, 1, 2]), np.array([1, 2, 3]))
        # Into an empty area: each class's samples are claimed at once, so
        # its first chunk is sized by them (two float rows, one int row).
        area = StorageArea()
        area.add_many(area.stage(block))
        assert slots(area) == {
            "allocated": 3, "free": 0, "staged": 0, "live": 3, "chunks": 2
        }
        area = StorageArea()
        area.add_many((np.zeros(3), 0, 100 + i) for i in range(4))  # a shard
        sids = area.add_many(area.stage(block))
        for sid, expected in zip(sids, samples):
            got = area.get(sid)[0]
            assert got.shape == expected.shape and got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        # The shard's class grew a second chunk of the shard's size; the new
        # class's first one is that size too.
        assert slots(area) == {
            "allocated": 12, "free": 5, "staged": 0, "live": 7, "chunks": 3
        }
        area.audit()

    def test_audit_catches_two_entries_on_one_slot(self):
        area = StorageArea()
        (sid,) = _install(area, _block(0, 1, 1), [1])
        with area._lock:
            area._entries[99] = area._entries[sid]
            area._nbytes += SIZE
        with pytest.raises(RuntimeError, match="share a slot"):
            area.audit()

    def test_audit_catches_an_entry_outside_the_slots(self):
        area = StorageArea()
        (sid,) = _install(area, _block(0, 1, 1), [1])
        with area._lock:
            area._entries[sid] = (area._entries[sid][0].copy(), 0)
        with pytest.raises(RuntimeError, match="not a slot row"):
            area.audit()

    def test_audit_catches_a_leaked_slot(self):
        area = StorageArea()
        (sid,) = _install(area, _block(0, 1, 1), [1])
        with area._lock:
            del area._entries[sid], area._gid_of[sid], area._sid_of[1]
            area._nbytes -= SIZE
        with pytest.raises(RuntimeError, match="slot accounting drifted"):
            area.audit()


# ------------------------------------------- the block path and subclasses
def _disk_worker(comm, root):
    area = DiskStorageArea(root / f"rank{comm.rank}")
    gids = range(comm.rank * 8, comm.rank * 8 + 8)
    area.add_many((np.full(4, gid, dtype=np.float32), gid % 3, gid) for gid in gids)
    sched = Scheduler(area, comm, fraction=0.5, seed=5)
    for epoch in range(3):
        sched.run_exchange(epoch)
    area.audit()
    on_disk = {}
    for path in area.root.glob("sample_*.npy"):
        sid = int(path.stem.split("_")[1])
        on_disk[sid] = (np.load(path), int(path.stem.split("_label_")[1]))
    in_memory = {sid: (sample, label) for sid, sample, label in area.items()}
    assert sorted(on_disk) == sorted(in_memory)
    for sid, (sample, label) in in_memory.items():
        np.testing.assert_array_equal(on_disk[sid][0], sample)
        assert on_disk[sid][1] == label
    return area.hot_gids(), sched.total_recv_samples


def test_exchange_into_disk_storage_leaves_one_file_per_installed_sample(tmp_path):
    result = run_spmd(_disk_worker, 2, args=(tmp_path,), deadline_s=60)
    assert sorted(g for gids, _n in result for g in gids) == list(range(16))
    assert all(received == 12 for _gids, received in result)


def _on_disk_training_worker(comm, root, data):
    strategy = strategy_from_name("partial-1")
    if root is not None:
        strategy.storage = DiskStorageArea(root / f"rank{comm.rank}")
    history = train_worker(comm, BOUND_CONFIG, strategy, *data)
    area = strategy.storage
    area.audit()
    files = None
    if root is not None:
        files = {
            int(path.stem.split("_")[1]):
                (int(path.stem.split("_label_")[1]), np.load(path).tobytes())
            for path in area.root.glob("sample_*.npy")
        }
    held = {sid: (label, sample.tobytes()) for sid, sample, label in area.items()}
    return (
        [(r.epoch, r.train_loss, r.val_accuracy) for r in history.records],
        files, held, strategy.scheduler.total_kept_samples,
    )


def test_kept_rounds_keep_the_files_of_a_disk_area_consistent(tmp_path):
    """A round a rank draws itself is re-keyed in place; on disk its file
    follows the new sid.  Three epochs of ``partial-1`` on two ranks leave
    a clean audit, exactly one file per hot entry, and the history of the
    same run in memory."""
    data = make_experiment_data(BOUND_SPEC)
    on_disk = run_spmd(
        _on_disk_training_worker, 2, args=(tmp_path, data), deadline_s=120
    )
    in_memory = run_spmd(_on_disk_training_worker, 2, args=(None, data), deadline_s=120)
    for (history, files, held, kept), (memory_history, *_rest) in zip(on_disk, in_memory):
        assert kept > 0
        assert files == held and len(held) == len(data[0]) // 2
        assert history == memory_history


def test_exchange_into_added_storage_keeps_unsent_sids_valid():
    """A shard seeded through ``add_many`` is copied into slots: the sids
    the exchange does not send keep reading rows equal to the source that
    share no memory with it, and what arrives lands in slots beside them."""
    feats = np.arange(24 * 4, dtype=np.float32).reshape(24, 4)

    def worker(comm):
        area = StorageArea()
        mine = range(comm.rank * 12, comm.rank * 12 + 12)
        sids = area.add_many((feats[gid], gid % 3, gid) for gid in mine)
        seeded = dict(zip(sids, mine))
        assert slots(area)["live"] == 12
        Scheduler(area, comm, fraction=0.5, seed=9).run_exchange(0)
        kept = [sid for sid in seeded if sid in area.ids()]
        assert len(kept) == 6
        for sid in kept:
            sample, label = area.get(sid)
            assert not np.shares_memory(sample, feats)
            np.testing.assert_array_equal(sample, feats[seeded[sid]])
            assert area.gid_of(sid) == seeded[sid] and label == seeded[sid] % 3
        for sid, sample, _label in area.items():
            np.testing.assert_array_equal(sample, feats[area.gid_of(sid)])
        assert slots(area)["live"] == 12
        area.audit()
        return area.hot_gids()

    result = run_spmd(worker, 2, deadline_s=60)
    assert sorted(g for gids in result for g in gids) == list(range(24))


# ------------------------------------------------------- view validity rule
def _handover_worker(comm):
    area = StorageArea()
    original = np.arange(8, dtype=np.float32)
    if comm.rank == 0:
        _install(area, original[None].copy(), [7], labels=[3])
        row = area.get_by_gid(7)[0]
    migrate(comm, area, ReplicaLedger(), [(7, 0, 1, TRANSFER)])
    comm.barrier()
    if comm.rank == 0:
        # The sender gave gid 7 up and the next arrival reuses its slot:
        # the bytes the peer was sent must not change under it.
        assert area.sid_of(7) is None
        (sid,) = _install(area, np.full((1, 8), -1, dtype=np.float32), [8])
        assert area.get(sid)[0] is row and row[0] == -1
    comm.barrier()
    if comm.rank == 1:
        sample, label = area.get_by_gid(7)
        return sample.tolist(), label
    return None


def test_a_sample_sent_by_the_elastic_layer_survives_its_slot_being_reused():
    """``threads`` passes payloads by reference (``copy_on_send=False``):
    the one elastic send site (recovery's and rejoin's migration) copies,
    so the receiver never holds a view into the sender's slots."""
    result = run_spmd(_handover_worker, 2, copy_on_send=False, deadline_s=60)
    assert result[1] == (np.arange(8, dtype=np.float32).tolist(), 3)


# ------------------------------------------------- abort after the commit
class _UnreachableLedger:
    """A ledger whose epoch commit meets a dead peer — after the exchange
    committed and staged its frames, before anything was installed."""

    def commit_epoch(self, comm, epoch, moves):
        raise ConnectionError("peer died during the ledger allgather")


def _abort_after_commit_worker(comm, allow_self):
    area = StorageArea()
    gids = range(comm.rank * 8, comm.rank * 8 + 8)
    area.add_many((np.full(4, gid, dtype=np.float32), 0, gid) for gid in gids)
    before = area.hot_gids()
    sched = Scheduler(
        area, comm, fraction=0.5, seed=2, allow_self=allow_self,
        ledger=_UnreachableLedger(),
    )
    sched.scheduling(0)
    sched.synchronize(*sched.communicate())
    # The rounds this rank drew itself staged nothing; they are still
    # plain entries when the ledger fails.
    kept = int((sched.plan.destinations[:, comm.rank] == comm.rank).sum())
    assert slots(area)["staged"] == 4 - kept
    with pytest.raises(ConnectionError):
        sched.clean_local_storage()
    sched.abort_exchange()
    # Nothing installed, nothing retired, and the arrived rows gave their
    # slots back: the senders still hold those samples, and the live slots
    # are the shard's.
    assert area.hot_gids() == before
    assert slots(area)["staged"] == 0 and slots(area)["live"] == 8
    area.audit()
    comm.barrier()
    return comm.pool.stats()["in_use"], kept


def test_abort_between_commit_and_install_gives_the_slots_back():
    result = run_spmd(_abort_after_commit_worker, 2, args=(False,), deadline_s=60)
    assert list(result) == [(0, 0), (0, 0)]


def test_abort_between_commit_and_install_leaves_kept_rounds_in_place():
    """The same abort where ranks drew themselves: a kept round is turned
    back into a staged row only after the ledger commit, so it is still an
    entry of the shard when that commit fails."""
    result = run_spmd(_abort_after_commit_worker, 2, args=(True,), deadline_s=60)
    assert [in_use for in_use, _kept in result] == [0, 0]
    assert sum(kept for _in_use, kept in result) > 0


# ------------------------------------------- (1+Q)·N/M in physical rows
BOUND_SPEC = SyntheticSpec(
    n_samples=320, n_classes=4, n_features=16, intra_modes=2,
    separation=2.4, noise=1.0, seed=3,
)
BOUND_CONFIG = TrainConfig(
    model="mlp", in_shape=(16,), num_classes=4, epochs=3, batch_size=16, seed=4,
)


def _bound_worker(comm, strategy_name, data, pinned_outside_slots):
    strategy = strategy_from_name(strategy_name)
    train_worker(comm, BOUND_CONFIG, strategy, *data)
    storage = strategy.storage
    scheduler = getattr(strategy, "scheduler", None)
    storage.audit()
    k = 0 if scheduler is None else scheduler.plan.rounds
    # Per epoch, the rounds that cross ranks: k minus those this rank drew
    # itself, which stay in their slots.
    wire = [
        int((ExchangePlan.for_epoch(
            seed=scheduler.seed, epoch=epoch, size=comm.size, rounds=k,
            allow_self=scheduler.allow_self,
        ).destinations[:, comm.rank] != comm.rank).sum())
        for epoch in range(BOUND_CONFIG.epochs)
    ] if k else [0]
    return {
        "pinned": pinned_outside_slots(storage),
        "rows": sum(len(pool.rows) for pool in storage._pools.values()),
        "held": len(storage),
        "k": k,
        "wire": max(wire),
    }


@pytest.mark.parametrize("backend", ["threads", "procs"])
@pytest.mark.parametrize("strategy", ["local", "partial-0.3", "partial-1"])
def test_training_holds_its_shard_in_the_areas_own_rows(
    backend, strategy, pinned_outside_slots
):
    """After a training run every hot entry is a row of the area's own slot
    chunks — no dataset array or frame is kept alive — and the rows the
    area ever made number at most the shard plus one epoch's arrivals off
    the wire: within the paper's ``(1+Q)·N/M``, counted in physical rows,
    since a round the rank drew itself keeps its sample in its slot."""
    data = make_experiment_data(BOUND_SPEC)
    per_rank = len(data[0]) // 2
    result = run_spmd(
        _bound_worker, 2, args=(strategy, data, pinned_outside_slots),
        backend=backend, deadline_s=120,
    )
    for seen in result:
        assert seen["pinned"] == 0
        assert seen["held"] == per_rank
        assert (seen["k"] > 0) == (strategy != "local")
        assert seen["wire"] < seen["k"] or strategy == "local"
        assert per_rank <= seen["rows"] <= per_rank + seen["wire"], seen
