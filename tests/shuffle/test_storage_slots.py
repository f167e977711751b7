"""Slot ownership: what the exchange installs lives in storage-owned slots.

A hypothesis state machine drives every mutating entry point of
``StorageArea`` against a dict-of-copies model and checks, after every
step, that each hot and cold entry still reads back the model's bytes — a
slot reused under a live entry shows up as a wrong byte — that ``audit()``
is clean, and that the slots allocated never exceed the most ever in use
plus one chunk — including while a block the exchange staged under compute
waits, across other installs and demotes, to be installed or rolled back.
Around it: the block path through the two subclasses that
override ``add`` / ``get`` / ``remove``, and the view-validity rule under
the by-reference ``threads`` transport.
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

from repro.elastic import ReplicaLedger
from repro.elastic.migration import TRANSFER, migrate
from repro.mpi import SampleBlock, run_spmd
from repro.mpi.tags import RECOVERY
from repro.shuffle import DiskStorageArea, Scheduler, StorageArea, StorageFullError

# Two slot classes of the same byte size, so capacity arithmetic stays in
# whole samples while two pools are exercised.
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
        self.capacity = None
        # sid -> [bytes, label, gid, slot class or None]; gid -> the same
        # without the gid.  Dicts keep insertion order: the cold one is the
        # eviction order.
        self.hot: dict[int, list] = {}
        self.cold: dict[int, list] = {}
        self.next_gid = 0
        self.fill = 0
        self.peak = [0, 0]  # most slots of each class in use at once
        # Gids whose cold replica a stage evicted (the area's own rule), and
        # the block staged early: (staged rows, model entries, class).
        self.displaced: set[int] = set()
        self.early = None

    # ------------------------------------------------------------ the model
    def _hot_bytes(self):
        return SIZE * len(self.hot)

    def _evict_cold(self, gid):
        self.cold.pop(gid, None)

    def _make_room(self, size) -> bool:
        """The area's rule: evict cold oldest-first, fail if hot alone
        leaves no room."""
        if self.capacity is None:
            return True
        while self.cold and self._hot_bytes() + SIZE * len(self.cold) + size > self.capacity:
            self._evict_cold(next(iter(self.cold)))
        return self._hot_bytes() + size <= self.capacity

    def _in_use(self, cls, staged=0):
        owned = sum(e[3] == cls for e in self.hot.values())
        owned += sum(e[2] == cls for e in self.cold.values())
        if self.early is not None and self.early[2] == cls:
            staged += len(self.early[1])
        self.peak[cls] = max(self.peak[cls], owned + staged)

    def _model_stage(self, gids):
        for gid in gids:
            if gid in self.cold:
                self.displaced.add(gid)
            self._evict_cold(gid)

    def _model_unstage(self, entries, cls, *, keep):
        for data, label, gid, _cls in entries:
            wanted = keep or gid in self.displaced
            self.displaced.discard(gid)
            if wanted and gid is not None and gid not in self._hot_gids():
                self._model_add_cold(data, label, gid, cls)

    def _fresh_gid(self, tracked):
        if not tracked:
            return None
        self.next_gid += 1
        return self.next_gid

    def _hot_gids(self):
        return {e[2] for e in self.hot.values() if e[2] is not None}

    def _model_add_cold(self, data, label, gid, cls) -> bool:
        self._evict_cold(gid)
        if not self._make_room(SIZE):
            return False
        self.cold[gid] = [data, label, cls]
        return True

    # ---------------------------------------------------------------- rules
    @rule(cls=st.integers(0, 1), tracked=st.booleans(), label=st.integers(0, 9))
    def add(self, cls, tracked, label):
        self.fill += 1
        sample = _block(cls, 1, self.fill)[0]
        gid = self._fresh_gid(tracked)
        fits = self._make_room(SIZE)
        if not fits:
            with pytest.raises(StorageFullError):
                self.area.add(sample, label, gid=gid)
            return
        sid = self.area.add(sample, label, gid=gid)
        self.hot[sid] = [sample.tobytes(), label, gid, None]

    @rule(
        cls=st.integers(0, 1), n=st.integers(1, 5), tracked=st.booleans(),
        recycle=st.booleans(), as_rows=st.booleans(),
    )
    def block_install(self, cls, n, tracked, recycle, as_rows):
        """What the exchange does: stage a frame's block, then register
        the rows.  ``recycle`` re-sends gids this area holds cold."""
        self.fill += 1
        block = _block(cls, n, self.fill)
        gids = [self._fresh_gid(tracked) for _ in range(n)]
        if recycle:
            for i, gid in enumerate(list(self.cold)[:n]):
                if gid not in self._hot_gids():
                    gids[i] = gid
        labels = np.arange(n) % 7
        columns = SampleBlock(
            list(block) if as_rows else block, labels,
            np.array([-1 if g is None else g for g in gids], dtype=np.int64),
        )
        staged = self.area.stage(columns)
        self._model_stage(gids)
        self._in_use(cls, staged=n)
        entries = [
            [block[i].tobytes(), int(labels[i]), gids[i], cls] for i in range(n)
        ]
        self._install_or(staged, entries, cls, keep=True)

    def _install_or(self, staged, entries, cls, *, keep):
        """``add_many`` the staged rows, or — no room — ``unstage`` them."""
        if self._make_room(len(entries) * SIZE):
            sids = self.area.add_many(staged)
            assert len(sids) == len(entries)
            self.displaced -= {e[2] for e in entries}
            self.hot.update(zip(sids, entries))
        else:
            with pytest.raises(StorageFullError):
                self.area.add_many(staged)
            # A refused install leaves the rows staged (and the early block).
            assert slots(self.area)["staged"] == len(entries) + (
                len(self.early[1]) if self.early else 0
            )
            self.area.unstage(staged, keep=keep)
            self._model_unstage(entries, cls, keep=keep)

    @precondition(lambda self: self.early is None)
    @rule(cls=st.integers(0, 1), n=st.integers(1, 4), recycle=st.booleans())
    def stage_early(self, cls, n, recycle):
        """What a sweep does under compute: stage a verified frame and leave
        it staged while other installs, demotes and evictions go on."""
        self.fill += 1
        block = _block(cls, n, self.fill)
        gids = [self._fresh_gid(i % 2 == 0) for i in range(n)]
        if recycle:
            for i, gid in enumerate(list(self.cold)[:n]):
                if gid not in self._hot_gids():
                    gids[i] = gid
        staged = self.area.stage(
            SampleBlock(
                block, np.zeros(n, dtype=np.int64),
                np.array([-1 if g is None else g for g in gids], dtype=np.int64),
            )
        )
        self._model_stage(gids)
        entries = [[block[i].tobytes(), 0, gids[i], cls] for i in range(n)]
        self.early = (staged, entries, cls)
        self._in_use(cls)

    @precondition(lambda self: self.early is not None)
    @rule(commit=st.booleans())
    def settle_early(self, commit):
        """The epoch's commit: the early block is installed, or its window
        fell beyond the agreed prefix and it is rolled back — the area is as
        if it had never been staged (a displaced replica is back)."""
        staged, entries, cls = self.early
        self.early = None
        if commit:
            self._install_or(staged, entries, cls, keep=False)
        else:
            self.area.unstage(staged, keep=False)
            self._model_unstage(entries, cls, keep=False)
        self._in_use(cls)

    @rule(cls=st.integers(0, 1), n=st.integers(1, 4))
    def stage_then_abort(self, cls, n):
        """An exchange aborted between commit and install: tracked rows
        stay as cold replicas, untracked ones give their slots back."""
        self.fill += 1
        block = _block(cls, n, self.fill)
        gids = [self._fresh_gid(i % 2 == 0) for i in range(n)]
        staged = self.area.stage(
            SampleBlock(
                block, np.zeros(n, dtype=np.int64),
                np.array([-1 if g is None else g for g in gids], dtype=np.int64),
            )
        )
        self._in_use(cls, staged=n)
        self.area.unstage(staged)
        self._model_unstage(
            [[block[i].tobytes(), 0, gids[i], cls] for i in range(n)], cls, keep=True
        )
        self._in_use(cls)

    @precondition(lambda self: self.hot)
    @rule(data=st.data())
    def remove(self, data):
        sid = data.draw(st.sampled_from(sorted(self.hot)))
        self.area.remove(sid)
        del self.hot[sid]

    @precondition(lambda self: self.hot)
    @rule(data=st.data())
    def demote(self, data):
        sid = data.draw(st.sampled_from(sorted(self.hot)))
        payload, label, gid, cls = self.hot.pop(sid)
        assert self.area.demote(sid) == (gid is not None)
        if gid is not None:
            self._evict_cold(gid)
            self.cold[gid] = [payload, label, cls]

    @precondition(lambda self: set(self.cold) - self._hot_gids())
    @rule(data=st.data())
    def promote(self, data):
        gid = data.draw(st.sampled_from(sorted(set(self.cold) - self._hot_gids())))
        payload, label, cls = self.cold.pop(gid)
        if self._make_room(SIZE):
            self.hot[self.area.promote(gid)] = [payload, label, gid, cls]
        else:
            with pytest.raises(StorageFullError):
                self.area.promote(gid)

    @rule(cls=st.integers(0, 1), reuse=st.booleans(), label=st.integers(0, 9))
    def add_cold(self, cls, reuse, label):
        self.fill += 1
        sample = _block(cls, 1, self.fill)[0]
        gid = next(iter(self.cold)) if reuse and self.cold else self._fresh_gid(True)
        kept = self._model_add_cold(sample.tobytes(), label, gid, None)
        assert self.area.add_cold(sample, label, gid) == kept

    @precondition(lambda self: self.hot)
    @rule(data=st.data())
    def re_add_a_view(self, data):
        """A view handed back to ``add`` gets its own bytes: removing the
        entry it came from (and reusing the slot) must not reach it."""
        sid = data.draw(st.sampled_from(sorted(self.hot)))
        view, label = self.area.get(sid)
        if not self._make_room(SIZE):
            return
        gid = self._fresh_gid(True)
        new = self.area.add(view, label, gid=gid)
        self.hot[new] = [self.hot[sid][0], label, gid, None]

    @rule()
    def drop_cold(self):
        assert self.area.drop_cold() == len(self.cold)
        self.cold.clear()

    @rule(samples=st.one_of(st.none(), st.integers(1, 12)))
    def resize(self, samples):
        capacity = None if samples is None else samples * SIZE
        if capacity is not None and self._hot_bytes() > capacity:
            with pytest.raises(StorageFullError):
                self.area.resize(capacity)
            return
        self.area.resize(capacity)
        self.capacity = capacity
        while self.cold and capacity is not None and (
            self._hot_bytes() + SIZE * len(self.cold) > capacity
        ):
            self._evict_cold(next(iter(self.cold)))

    # ----------------------------------------------------------- invariants
    @invariant()
    def entries_read_back_the_models_bytes(self):
        area = self.area
        assert area.ids() == list(self.hot)
        for sid, (payload, label, gid, _cls) in self.hot.items():
            sample, got_label = area.get(sid)
            assert sample.tobytes() == payload and got_label == label
            assert area.gid_of(sid) == gid
        assert area.cold_gids() == list(self.cold)
        for gid, (payload, label, _cls) in self.cold.items():
            sample, got_label = area._cold[gid]
            assert sample.tobytes() == payload and got_label == label
        assert area.nbytes == self._hot_bytes()
        assert area.audit()["cold_nbytes"] == SIZE * len(self.cold)

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
        for i in range(10):
            area.add(np.zeros(4, np.float32), 0, gid=i)
        _install(area, _block(0, 2, 1), [100, 101])
        assert slots(area)["allocated"] == 10
        # Samples that came through add() stay the caller's arrays.
        assert slots(area)["live"] == 2

    def test_demote_and_promote_hand_the_slot_over(self):
        area = StorageArea()
        (sid,) = _install(area, _block(0, 1, 3), [7])
        row = area.get(sid)[0]
        assert area.demote(sid)
        assert area.get_by_gid(7)[0] is row and slots(area)["live"] == 1
        # A block arriving now must not be given the cold replica's slot.
        _install(area, _block(0, 1, 4), [8])
        np.testing.assert_array_equal(row, _block(0, 1, 3)[0])
        assert area.get(area.promote(7))[0] is row
        area.audit()

    def test_stage_supersedes_the_cold_replica_and_takes_its_slot(self):
        area = StorageArea()
        (sid,) = _install(area, _block(0, 1, 1), [7])
        row = area.get(sid)[0]
        area.demote(sid)
        (again,) = _install(area, _block(0, 1, 1), [7])
        assert 7 not in area.cold_gids()
        assert area.get(again)[0] is row
        assert slots(area)["allocated"] == 1

    def test_unstage_keeps_tracked_rows_as_cold_replicas(self):
        area = StorageArea()
        staged = area.stage(
            SampleBlock(_block(0, 2, 5), np.array([1, 2]), np.array([40, -1]))
        )
        assert slots(area)["staged"] == 2
        area.unstage(staged)
        assert area.cold_gids() == [40] and len(area) == 0
        np.testing.assert_array_equal(area.get_by_gid(40)[0], _block(0, 2, 5)[0])
        assert slots(area) == {
            "allocated": 2, "free": 1, "staged": 0, "live": 1, "chunks": 1
        }
        area.audit()

    def test_a_list_of_mixed_samples_is_staged_by_class(self):
        area = StorageArea()
        for i in range(4):  # a shard: the size of a class's chunks
            area.add(np.zeros(3), 0, gid=100 + i)
        samples = [np.arange(3.0), np.array(5, dtype=np.int64), np.arange(3.0) + 1]
        sids = area.add_many(
            area.stage(SampleBlock(samples, np.array([0, 1, 2]), np.array([1, 2, 3])))
        )
        for sid, expected in zip(sids, samples):
            got = area.get(sid)[0]
            assert got.shape == expected.shape and got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        assert slots(area)["live"] == 3 and slots(area)["chunks"] == 2
        area.audit()

    def test_block_install_settles_capacity_once(self):
        area = StorageArea(capacity_bytes=4 * SIZE)
        old = _install(area, _block(0, 3, 1), [0, 1, 2])
        for sid in old:
            area.demote(sid)
        staged = area.stage(SampleBlock(_block(0, 3, 2), np.zeros(3, int), np.array([5, 6, 7])))
        area.add_many(staged)
        assert area.cold_gids() == [2]  # oldest two evicted, nothing else
        too_many = area.stage(
            SampleBlock(_block(0, 2, 3), np.zeros(2, int), np.array([8, 9]))
        )
        with pytest.raises(StorageFullError):
            area.add_many(too_many)
        assert len(area) == 3  # nothing of the block was installed

    def test_audit_catches_two_entries_on_one_slot(self):
        area = StorageArea()
        (sid,) = _install(area, _block(0, 1, 1), [1])
        with area._lock:
            area._cold[99] = area._entries[sid]
            area._cold_nbytes += SIZE
        with pytest.raises(RuntimeError, match="share a slot"):
            area.audit()

    def test_audit_catches_a_leaked_slot(self):
        area = StorageArea()
        (sid,) = _install(area, _block(0, 1, 1), [1])
        with area._lock:
            del area._entries[sid], area._gid_of[sid], area._sid_of[1]
            area._nbytes -= SIZE
        with pytest.raises(RuntimeError, match="slot accounting drifted"):
            area.audit()


def test_demoting_a_stale_duplicate_replaces_the_cold_replica():
    """Regression: ``demote`` used to overwrite a cold replica of the same
    gid without subtracting its bytes (two 16 B demotes read as 32 B cold
    for 16 resident, and ``audit()`` raised)."""
    area = StorageArea()
    first = area.add(np.zeros(4, np.float32), 0, gid=7)
    second = area.add(np.ones(4, np.float32), 1, gid=7)
    assert area.demote(first) and area.demote(second)
    assert area.audit()["cold_nbytes"] == SIZE and area.cold_gids() == [7]
    assert area.get_by_gid(7)[1] == 1
    area.audit()
    # Under slot ownership the replaced replica's slot comes back too.
    slotted = StorageArea()
    a, b = _install(slotted, _block(0, 2, 1), [7, 7])
    slotted.demote(a)
    slotted.demote(b)
    assert slots(slotted)["live"] == 1 and slots(slotted)["free"] == 1
    slotted.audit()


# ------------------------------------------- the block path and subclasses
def _disk_worker(comm, root):
    area = DiskStorageArea(root / f"rank{comm.rank}")
    for i in range(8):
        gid = comm.rank * 8 + i
        area.add(np.full(4, gid, dtype=np.float32), gid % 3, gid=gid)
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


def test_exchange_into_added_storage_keeps_unsent_sids_valid():
    """A shard seeded through ``add`` holds the caller's arrays, not slots:
    the sids the exchange does not send keep reading those arrays, and what
    arrives lands in slots beside them."""
    feats = np.arange(24 * 4, dtype=np.float32).reshape(24, 4)

    def worker(comm):
        area = StorageArea()
        mine = range(comm.rank * 12, comm.rank * 12 + 12)
        seeded = {area.add(feats[gid], gid % 3, gid=gid): gid for gid in mine}
        assert slots(area)["live"] == 0
        Scheduler(area, comm, fraction=0.5, seed=9).run_exchange(0)
        kept = [sid for sid in seeded if sid in area.ids()]
        assert len(kept) == 6
        for sid in kept:
            sample, label = area.get(sid)
            assert np.shares_memory(sample, feats)
            assert area.gid_of(sid) == seeded[sid] and label == seeded[sid] % 3
        for sid, sample, _label in area.items():
            np.testing.assert_array_equal(sample, feats[area.gid_of(sid)])
        assert slots(area)["live"] == 6
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
    migrate(comm, area, ReplicaLedger(), [(7, 0, 1, TRANSFER)], tags=RECOVERY)
    comm.barrier()
    if comm.rank == 0:
        # The owner retires gid 7 for good and the next arrival reuses its
        # slot: the bytes the peer was sent must not change under it.
        row = area.get_by_gid(7)[0]
        if area.sid_of(7) is not None:
            area.remove(area.sid_of(7))
        area.drop_cold()
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


def _abort_after_commit_worker(comm):
    area = StorageArea()
    for i in range(8):
        gid = comm.rank * 8 + i
        area.add(np.full(4, gid, dtype=np.float32), 0, gid=gid)
    before = area.hot_gids()
    sched = Scheduler(
        area, comm, fraction=0.5, seed=2, allow_self=False,
        ledger=_UnreachableLedger(),
    )
    sched.scheduling(0)
    sched.synchronize(*sched.communicate())
    assert slots(area)["staged"] == 4
    with pytest.raises(ConnectionError):
        sched.clean_local_storage()
    sched.abort_exchange()
    # Nothing installed, nothing retired, no slot left claimed; what had
    # arrived stays behind as recovery replicas.
    assert area.hot_gids() == before
    assert slots(area)["staged"] == 0 and slots(area)["live"] == 4
    arrived = area.cold_gids()
    assert len(arrived) == 4 and not set(arrived) & set(before)
    for gid in arrived:
        np.testing.assert_array_equal(area.get_by_gid(gid)[0], np.full(4, gid))
    area.audit()
    comm.barrier()
    return comm.pool.stats()["in_use"]


def test_abort_between_commit_and_install_gives_the_slots_back():
    assert list(run_spmd(_abort_after_commit_worker, 2, deadline_s=60)) == [0, 0]
