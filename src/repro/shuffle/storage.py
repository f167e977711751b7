"""Per-worker local storage area with capacity accounting.

"We assume that each worker's designated portion of the training data
samples is loaded into a predefined storage area before training.  During
training, a worker only processes data samples in its designated storage
area." (§III-A)

:class:`StorageArea` is that predefined area: an id-addressed store of
``(sample, label)`` entries with byte-level capacity accounting, so the
paper's ``(1+Q) * N/M`` storage bound can be asserted rather than assumed.
A memory-backed store models node-local RAM/tmpfs; a directory-backed store
(:class:`DiskStorageArea`) models node-local SSD with real files.

Two layers of identity coexist:

* **sid** — an opaque storage-local id, stable across removals.  The
  exchange scheduler addresses entries by sid.
* **gid** — the sample's *global* id (its index in the source dataset),
  attached at ``add`` time.  Gids are what the elastic layer reasons
  about: the :class:`~repro.elastic.ReplicaLedger` records which rank
  holds which gid, and shard recovery re-fetches lost gids from peers.

On top of the hot (trainable) entries sits a **cold replica cache**:
when the exchange scheduler retires a sent sample it is *demoted* rather
than deleted, so the bytes already paid for double as a replica another
rank can recover from after a failure.  Cold entries share the capacity
budget but are evicted automatically whenever a hot add needs the room,
so the paper's storage bound still holds for the working set.

What the exchange installs lives in **slots**: fixed-size rows of arrays
the area allocates itself (:meth:`StorageArea.stage`), so a received frame
is copied in with one indexed assignment and a departed sample's bytes are
reused by an arriving one instead of being freed and re-allocated.
"""

from __future__ import annotations

import itertools
import math
import threading
from heapq import heappop, heappush
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.mpi.codec import SampleBlock
from repro.utils.fileio import atomic_save

__all__ = ["StorageArea", "DiskStorageArea", "StorageFullError", "StorageDataset"]


class StorageFullError(RuntimeError):
    """Adding a sample would exceed the storage area's byte capacity."""


# Life of a slot: FREE (in its pool's heap) -> STAGED (claimed by stage())
# -> LIVE (owned by exactly one hot or cold entry; demote and promote move
# the entry's array, and the slot with it, between the two maps) -> FREE.
_FREE, _STAGED, _LIVE = range(3)


class _SlotPool:
    """Fixed-size slots for samples of one dtype and shape, in equal chunks
    of ``per`` slots the pool allocates as they are first needed.

    The lowest free slot is claimed first, and a slot that was never used
    only after every recycled one — so slots, their row views and the
    memory behind them come into being in ascending order and the touched
    part of the pool is as large as the most slots ever in use at once.

    The bookkeeping is plain Python on purpose: a numpy call over a few
    hundred slots drops the GIL, and getting it back from a training thread
    costs more than a whole frame's memcpy."""

    def __init__(
        self, dtype: np.dtype, shape: tuple[int, ...], per: int,
        index: dict[int, tuple["_SlotPool", int]],
    ):
        self.dtype = dtype
        self.shape = shape
        self.per = per
        self.size = dtype.itemsize * math.prod(shape)  # bytes per slot
        self.index = index                    # the area's id(row) -> (pool, slot)
        self.chunks: list[np.ndarray] = []
        self.flats: list[memoryview] = []     # chunk -> its writable bytes
        self.rows: list[np.ndarray] = []      # slot -> read-only row view
        self.state = bytearray()              # slot -> _FREE / _STAGED / _LIVE
        self.free: list[int] = []             # heap of recycled slots

    def claim(self, n: int) -> list[int]:
        """The ``n`` lowest free slots, now STAGED."""
        state, free = self.state, self.free
        slots = [heappop(free) for _ in range(min(n, len(free)))]
        for slot in slots:
            state[slot] = _STAGED
        slots.extend(self._fresh() for _ in range(n - len(slots)))
        return slots

    def _fresh(self) -> int:
        """Bring the next never-used slot into being, STAGED (and its chunk,
        if it is the chunk's first)."""
        slot = len(self.rows)
        chunk_no, local = divmod(slot, self.per)
        if chunk_no == len(self.chunks):
            chunk = np.empty((self.per, *self.shape), dtype=self.dtype)
            self.chunks.append(chunk)
            self.flats.append(
                memoryview(chunk.reshape(-1).view(np.uint8)) if self.size else None
            )
        # ``[local, ...]`` keeps a 0-d sample an array view (``[local]``
        # would return a scalar copy).
        row = self.chunks[chunk_no][local, ...]
        row.flags.writeable = False
        self.rows.append(row)
        self.state.append(_STAGED)
        self.index[id(row)] = (self, slot)
        return slot

    def write(self, slot: int, sample: np.ndarray) -> None:
        """Copy a C-contiguous sample's bytes into ``slot`` — through the
        buffer protocol, which holds the GIL."""
        if self.size:
            chunk_no, local = divmod(slot, self.per)
            self.flats[chunk_no][local * self.size : (local + 1) * self.size] = (
                memoryview(sample).cast("B")
            )

    def release(self, slot: int) -> None:
        self.state[slot] = _FREE
        heappush(self.free, slot)


class StorageArea:
    """In-memory sample store with byte capacity accounting.

    Entries are addressed by opaque integer ids that remain stable across
    removals (unlike list indices), which is what the exchange scheduler
    needs: it records ids at ``scheduling()`` time and removes exactly those
    at ``clean_local_storage()`` time even though receives interleave.

    Thread-safe: every mutating operation (and every multi-field read)
    runs under one re-entrant lock, so an area shared between threads
    never shows a half-applied add / demote / promote — the byte and
    count totals, the sid <-> gid maps and the cold cache move together
    (``tests/shuffle/test_storage_concurrency.py``).  The lock is
    re-entrant because ``demote`` reads through ``get`` and ``add_many`` /
    ``unstage`` compose ``add`` / ``add_cold``.

    **Slots.**  :meth:`stage` copies a block of same-shaped samples into
    free slots of chunked arrays this area owns and hands back one
    read-only row view per sample; :meth:`add_many` registers such rows as
    entries without touching their bytes.  A slot class is a ``(dtype,
    shape)``; its chunks hold as many slots as the area had entries when
    the class was first staged (the shard), and another chunk is allocated
    only when every slot of the class is taken — exactly where a dict of
    private arrays would have grown.  The lowest free slot is claimed
    first.  A slot has one owner (the staging caller, then one hot or cold
    entry — ``demote`` and ``promote`` hand it over) and is free again once
    that entry has left both the hot map and the cold cache.  Samples that
    arrive through :meth:`add` are kept as the caller's arrays, as before.

    **View validity.**  An array obtained from ``get`` / ``get_by_gid`` /
    ``items`` / :meth:`take` is valid for as long as its entry stays in
    the area, hot or cold.  After the entry is removed or evicted its slot
    may be rewritten by the next :meth:`stage`; whoever needs the bytes
    past that point — another rank's storage under the by-reference
    ``threads`` transport, a cache — takes a copy while the entry is live.
    The exchange packs (copies) rows before it retires them, and the
    elastic transfers send copies.
    """

    def __init__(self, *, capacity_bytes: int | None = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self._lock = threading.RLock()
        self.capacity_bytes = capacity_bytes
        self._entries: dict[int, tuple[np.ndarray, int]] = {}
        self._ids = itertools.count()
        self._nbytes = 0
        self.peak_nbytes = 0
        self.peak_count = 0
        # Global-id bookkeeping for the hot entries (sid <-> gid), plus the
        # cold replica cache keyed by gid.  Cold entries are insertion
        # ordered so eviction is oldest-first.
        self._gid_of: dict[int, int] = {}
        self._sid_of: dict[int, int] = {}
        self._cold: dict[int, tuple[np.ndarray, int]] = {}
        self._cold_nbytes = 0
        # Slot storage: one pool per (dtype, shape), and which pool and slot
        # a row view (by identity) belongs to.
        self._pools: dict[tuple, _SlotPool] = {}
        self._slot_of: dict[int, tuple[_SlotPool, int]] = {}
        # Gids whose cold replica a stage() evicted and whose staged
        # successor is neither installed nor unstaged yet.
        self._displaced: set[int] = set()

    # ------------------------------------------------------------------ CRUD
    def add(self, sample: np.ndarray, label: int, gid: int | None = None) -> int:
        """Store a sample; returns its id.  ``gid`` attaches the sample's
        global identity (source-dataset index) for replica tracking.

        If the configured capacity would be exceeded, cold replicas are
        evicted oldest-first to make room; only when the *hot* set alone
        cannot fit is :class:`StorageFullError` raised."""
        sample = np.asarray(sample)
        with self._lock:
            return self._register(sample, int(label), gid, own=True)

    def _register(
        self, sample: np.ndarray, label: int, gid: int | None, *, own: bool = False
    ) -> int:
        """Make ``sample`` a hot entry (runs under the lock).  ``own`` settles
        the ownership of a caller's array first; without it the array is
        one this area already holds (``promote``)."""
        if gid is not None:
            # A hot add supersedes any cold replica of the same sample.
            self._evict_cold_gid(gid)
        self._make_room(sample.nbytes)
        if own:
            sample = self._own(sample)
        sid = next(self._ids)
        self._entries[sid] = (sample, label)
        self._nbytes += sample.nbytes
        if gid is not None:
            self._gid_of[sid] = int(gid)
            self._sid_of[int(gid)] = sid
        self.peak_nbytes = max(self.peak_nbytes, self._nbytes)
        self.peak_count = max(self.peak_count, len(self._entries))
        self._installed([sid], [sample], [label])
        return sid

    def add_many(
        self, entries: Iterable[tuple[np.ndarray, int, int | None]]
    ) -> list[int]:
        """Store ``(sample, label, gid)`` triples in order; returns their ids.

        The exchange installs a whole committed epoch with one call: a
        :class:`~repro.mpi.codec.SampleBlock` whose samples are the rows
        :meth:`stage` returned is registered as it stands — its bytes are
        already in this area's slots, so nothing is copied or allocated and
        the capacity is settled once for the block (same-gid cold replicas
        superseded, then cold evicted oldest-first, then
        :class:`StorageFullError` with nothing installed).  Any other
        iterable goes through :meth:`add` sample by sample; read-only
        zero-copy views into a received envelope are kept un-copied, so
        the envelope's backing buffer stays alive as long as they do."""
        with self._lock:
            if isinstance(entries, SampleBlock):
                slots = self._staged_slots(entries.samples)
                if slots is not None:
                    return self._install_staged(entries, slots)
            return [self.add(sample, label, gid=gid) for sample, label, gid in entries]

    def get(self, sid: int) -> tuple[np.ndarray, int]:
        """Fetch the (sample, label) pair for an id (KeyError if absent)."""
        try:
            with self._lock:
                return self._entries[sid]
        except KeyError:
            raise KeyError(f"no sample with id {sid} in storage") from None

    def take(self, sids: Sequence[int]) -> SampleBlock:
        """The entries of ``sids`` as columns — their own arrays (nothing is
        copied), labels, and gids with ``-1`` for untracked — read under one
        lock acquisition.  What the exchange packs a frame from."""
        with self._lock:
            try:
                entries = [self._entries[sid] for sid in sids]
            except KeyError as exc:
                raise KeyError(f"no sample with id {exc.args[0]} in storage") from None
            gids = [self._gid_of.get(sid, -1) for sid in sids]
        return SampleBlock(
            [sample for sample, _label in entries],
            np.array([label for _sample, label in entries], dtype=np.int64),
            np.array(gids, dtype=np.int64),
        )

    def remove(self, sid: int) -> None:
        """Delete a stored sample by id."""
        with self._lock:
            try:
                sample, label = self._entries[sid]
            except KeyError:
                raise KeyError(f"no sample with id {sid} in storage") from None
            self._unregister(sid, sample, label)
            self._release(sample)

    def _unregister(self, sid: int, sample: np.ndarray, label: int) -> int | None:
        """Take an entry out of the hot map (its bytes are the caller's to
        release or to file elsewhere); returns its gid."""
        del self._entries[sid]
        self._nbytes -= sample.nbytes
        gid = self._gid_of.pop(sid, None)
        if gid is not None and self._sid_of.get(gid) == sid:
            del self._sid_of[gid]
        self._removed(sid, label)
        return gid

    def _make_room(self, size: int) -> None:
        """Evict cold replicas oldest-first until ``size`` more bytes fit;
        :class:`StorageFullError` if the hot set alone leaves no room."""
        if self.capacity_bytes is None:
            return
        while (
            self._nbytes + self._cold_nbytes + size > self.capacity_bytes
            and self._cold
        ):
            self._evict_cold_gid(next(iter(self._cold)))
        if self._nbytes + size > self.capacity_bytes:
            raise StorageFullError(
                f"adding {size} B would exceed capacity "
                f"({self._nbytes}/{self.capacity_bytes} B used)"
            )

    def _installed(
        self, sids: Sequence[int], samples: Sequence[np.ndarray], labels: Sequence[int]
    ) -> None:
        """Hook: these hot entries were just registered (by ``add`` or by a
        block ``add_many``).  A persistent subclass writes them out."""

    def _removed(self, sid: int, label: int) -> None:
        """Hook: this hot entry was just removed."""

    # ------------------------------------------------------------------ slots
    def stage(self, block: SampleBlock) -> SampleBlock:
        """Copy a block's samples into free slots; returns the block with
        its samples replaced by their read-only row views there.

        Cold replicas of the block's gids are evicted first: the arriving
        copies supersede them (as a hot :meth:`add` would), and the slots
        they vacate are the first this block fills.  A ``(n, *shape)``
        array goes into one slot class; a list of arrays is staged sample
        by sample, each into the class of its own dtype and shape.  The
        slots stay claimed, outside the capacity accounting like the frame
        the bytes came from, until the rows are handed to :meth:`add_many`
        (which makes them entries) or :meth:`unstage`."""
        samples = block.samples
        with self._lock:
            displaced = self._cold.keys() & set(block.gids.tolist())
            for gid in displaced:
                self._evict_cold_gid(gid)
            self._displaced |= displaced
            if isinstance(samples, np.ndarray):
                rows = self._stage_rows(samples)
            else:
                rows = [
                    row
                    for sample in samples
                    for row in self._stage_rows(np.asarray(sample)[None, ...])
                ]
        return SampleBlock(rows, block.labels, block.gids)

    def _stage_rows(self, samples: np.ndarray) -> list[np.ndarray]:
        key = (samples.dtype, samples.shape[1:])
        pool = self._pools.get(key)
        if pool is None:
            per = max(len(self._entries), len(samples), 1)
            pool = self._pools[key] = _SlotPool(*key, per, self._slot_of)
        slots = pool.claim(len(samples))
        if not samples.flags.c_contiguous:  # whole rows may still be apart
            samples = [np.ascontiguousarray(sample) for sample in samples]
        for slot, sample in zip(slots, samples):
            pool.write(slot, sample)
        rows = pool.rows
        return [rows[slot] for slot in slots]

    def unstage(self, block: SampleBlock, *, keep: bool = True) -> None:
        """Give up staged rows that will not be installed.

        With ``keep`` (an exchange aborted between its commit and its
        install) a row with a gid that is not hot here stays as a cold
        replica, budget permitting — its bytes are resident anyway.
        Without (a window rolled back, an exchange aborted before its
        commit: the sender still holds the sample) the area goes back to
        what it was before the rows were staged: a row takes the place of
        the cold replica :meth:`stage` evicted for it, if it did.  The rest
        are freed."""
        with self._lock:
            for row, label, gid in block:
                pool, slot = self._slot_of.get(id(row), (None, None))
                if pool is None or pool.state[slot] != _STAGED:
                    continue
                wanted = keep or gid in self._displaced
                self._displaced.discard(gid)
                if (
                    not wanted or gid is None or gid in self._sid_of
                    or not self.add_cold(row, label, gid)
                ):
                    pool.release(slot)

    def _own(self, sample: np.ndarray) -> np.ndarray:
        """Settle who owns the bytes of an array about to become an entry.

        A staged row of this area's slots is claimed.  Any other view into
        the slots is copied, because a slot has one owner.  A foreign array
        is kept as it is."""
        pool, slot = self._slot_of.get(id(sample), (None, None))
        if pool is None:
            return sample.copy() if self._aliases_slots(sample) else sample
        if pool.state[slot] != _STAGED:
            return sample.copy()
        pool.state[slot] = _LIVE
        return sample

    def _aliases_slots(self, sample: np.ndarray) -> bool:
        base = sample.base
        return base is not None and any(
            base is chunk for pool in self._pools.values() for chunk in pool.chunks
        )

    def _release(self, sample: np.ndarray) -> None:
        """Give up the slot of an entry that just left the hot map or the
        cold cache (no-op for a sample that lives outside the slots)."""
        pool, slot = self._slot_of.get(id(sample), (None, None))
        if pool is not None:
            pool.release(slot)

    def _staged_slots(self, samples) -> list[tuple[_SlotPool, int]] | None:
        """Where ``samples`` sit if they are, one for one, staged rows of
        this area; else None."""
        if isinstance(samples, np.ndarray) or not len(samples):
            return None
        slots = list(map(self._slot_of.get, map(id, samples)))
        if None in slots or len(set(slots)) != len(slots):
            return None
        if any(pool.state[slot] != _STAGED for pool, slot in slots):
            return None
        return slots

    def _install_staged(
        self, block: SampleBlock, slots: list[tuple[_SlotPool, int]]
    ) -> list[int]:
        """Register staged rows as hot entries, in order (runs under the
        lock): ``add``'s bookkeeping, settled once for the block."""
        rows = block.samples
        labels = block.labels.tolist()
        size = sum(row.nbytes for row in rows)
        tracked = [(i, gid) for i, gid in enumerate(block.gids.tolist()) if gid >= 0]
        gids = {gid for _i, gid in tracked}
        for gid in self._cold.keys() & gids:
            self._evict_cold_gid(gid)
        self._make_room(size)
        self._displaced -= gids
        sids = list(itertools.islice(self._ids, len(rows)))
        for pool, slot in slots:
            pool.state[slot] = _LIVE
        self._entries.update(zip(sids, zip(rows, labels)))
        self._nbytes += size
        first = sids[0]
        self._gid_of.update((first + i, gid) for i, gid in tracked)
        self._sid_of.update((gid, first + i) for i, gid in tracked)
        self.peak_nbytes = max(self.peak_nbytes, self._nbytes)
        self.peak_count = max(self.peak_count, len(self._entries))
        self._installed(sids, rows, labels)
        return sids

    # -------------------------------------------------------- global identity
    def gid_of(self, sid: int) -> int | None:
        """Global id attached to a hot entry, or None if untracked."""
        with self._lock:
            return self._gid_of.get(sid)

    def sid_of(self, gid: int) -> int | None:
        """Hot storage id currently holding ``gid``, or None."""
        with self._lock:
            return self._sid_of.get(gid)

    def hot_gids(self) -> list[int]:
        """Global ids of all hot entries that carry one, insertion order."""
        with self._lock:
            return [self._gid_of[sid] for sid in self._entries if sid in self._gid_of]

    def get_by_gid(self, gid: int) -> tuple[np.ndarray, int]:
        """Fetch ``(sample, label)`` for a global id, hot or cold."""
        with self._lock:
            sid = self._sid_of.get(gid)
            if sid is not None:
                return self._entries[sid]
            try:
                return self._cold[gid]
            except KeyError:
                raise KeyError(
                    f"gid {gid} neither hot nor cold in storage"
                ) from None

    # ----------------------------------------------------- cold replica cache
    def demote(self, sid: int) -> bool:
        """Retire a hot entry into the cold replica cache.

        The entry stops being trainable (it leaves ``ids()``/``items()``)
        but its bytes stay resident as a recovery replica, evictable the
        moment a hot add needs the room.  Entries without a gid cannot be
        addressed for recovery, so they are simply removed; returns True
        iff a cold replica was retained."""
        with self._lock:
            sample, label = self.get(sid)
            gid = self._unregister(sid, sample, label)
            if gid is None:
                self._release(sample)
                return False
            # An older replica of the same gid (a stale duplicate was
            # demoted earlier) is replaced, not leaked into the byte count.
            if gid in self._cold:
                self._evict_cold_gid(gid)
            # The array moves from one map to the other and its slot, if it
            # has one, with it.
            self._cold[gid] = (sample, label)
            self._cold_nbytes += sample.nbytes
            return True

    def add_cold(self, sample: np.ndarray, label: int, gid: int) -> bool:
        """Install a cold replica directly, without touching the hot map.

        The snapshot-restore path re-creates a manifest's cold cache with
        this instead of ``add`` + ``demote``: a gid can legitimately be
        both hot and cold (demoting a stale duplicate leaves the newer hot
        entry live), and the ``add`` would rebind ``sid_of(gid)`` to the
        throwaway entry, unbinding the hot copy when it is demoted again.
        Cold replicas are best-effort — returns False instead of raising
        when the budget cannot hold the bytes."""
        sample = np.asarray(sample)
        with self._lock:
            self._evict_cold_gid(gid)
            try:
                self._make_room(sample.nbytes)
            except StorageFullError:
                return False
            self._cold[int(gid)] = (self._own(sample), int(label))
            self._cold_nbytes += sample.nbytes
            return True

    def promote(self, gid: int) -> int:
        """Re-activate a cold replica as a hot entry; returns its new sid."""
        with self._lock:
            try:
                sample, label = self._cold.pop(gid)
            except KeyError:
                raise KeyError(
                    f"gid {gid} has no cold replica to promote"
                ) from None
            self._cold_nbytes -= sample.nbytes
            try:
                # The array moves back to the hot map, its slot with it.
                return self._register(sample, label, gid)
            except StorageFullError:
                self._release(sample)
                raise

    def cold_gids(self) -> list[int]:
        """Global ids of the cold replicas currently cached (oldest first)."""
        with self._lock:
            return list(self._cold.keys())

    def _evict_cold_gid(self, gid: int) -> None:
        entry = self._cold.pop(gid, None)
        if entry is not None:
            self._cold_nbytes -= entry[0].nbytes
            self._release(entry[0])

    def drop_cold(self) -> int:
        """Evict every cold replica; returns the number evicted."""
        with self._lock:
            n = len(self._cold)
            for gid in list(self._cold):
                self._evict_cold_gid(gid)
            return n

    def resize(self, capacity_bytes: int | None) -> None:
        """Change the capacity bound (elastic recovery grows it to
        ``(1+Q)*N/(M-1)`` after a shrink).  Cold replicas are evicted as
        needed; shrinking below the hot footprint raises
        :class:`StorageFullError`."""
        with self._lock:
            if capacity_bytes is not None:
                if capacity_bytes <= 0:
                    raise ValueError(
                        f"capacity must be positive, got {capacity_bytes}"
                    )
                if self._nbytes > capacity_bytes:
                    raise StorageFullError(
                        f"hot entries occupy {self._nbytes} B; cannot resize to "
                        f"{capacity_bytes} B"
                    )
                while self._cold and self._nbytes + self._cold_nbytes > capacity_bytes:
                    self._evict_cold_gid(next(iter(self._cold)))
            self.capacity_bytes = capacity_bytes

    def ids(self) -> list[int]:
        """Current ids in insertion order."""
        with self._lock:
            return list(self._entries.keys())

    def items(self) -> Iterator[tuple[int, np.ndarray, int]]:
        """Yield (id, sample, label) triples in insertion order (snapshot
        taken under the lock, so concurrent adds/removes cannot tear it)."""
        with self._lock:
            snapshot = [
                (sid, sample, label)
                for sid, (sample, label) in self._entries.items()
            ]
        yield from snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total bytes currently stored."""
        with self._lock:
            return self._nbytes

    def audit(self) -> dict[str, int]:
        """Check the accounting invariants under the lock; returns totals,
        slot counts among them: ``allocated`` (in ``chunks`` arrays) =
        ``free`` + ``staged`` + ``live``.

        The invariants a concurrent add/demote/promote race would break:
        ``nbytes`` equals the sum of hot entry bytes, ``cold_nbytes``
        equals the sum of cold replica bytes, the sid<->gid maps are
        mutually inverse, the capacity bound holds, and the slots are
        consistent: no two live entries share one, none merely aliases slot
        storage, and the slots marked live are exactly those an entry owns
        (so free + staged + owned = allocated).  A gid may be hot *and*
        cold (see :meth:`add_cold`; a sample the exchange sent to its own
        rank ends up so).  Raises :class:`RuntimeError` on the first
        violation — the concurrency hammer test calls this between (and
        after) thread storms.
        """
        with self._lock:
            hot = sum(sample.nbytes for sample, _ in self._entries.values())
            cold = sum(sample.nbytes for sample, _ in self._cold.values())
            if hot != self._nbytes:
                raise RuntimeError(
                    f"hot byte accounting drifted: tracked {self._nbytes}, "
                    f"actual {hot}"
                )
            if cold != self._cold_nbytes:
                raise RuntimeError(
                    f"cold byte accounting drifted: tracked {self._cold_nbytes}, "
                    f"actual {cold}"
                )
            for sid, gid in self._gid_of.items():
                if sid not in self._entries:
                    raise RuntimeError(f"gid map names dead sid {sid}")
                if self._sid_of.get(gid) != sid:
                    raise RuntimeError(
                        f"sid<->gid maps disagree for sid {sid} / gid {gid}"
                    )
            for gid, sid in self._sid_of.items():
                if self._gid_of.get(sid) != gid:
                    raise RuntimeError(
                        f"sid<->gid maps disagree for gid {gid} / sid {sid}"
                    )
            if (
                self.capacity_bytes is not None
                and self._nbytes > self.capacity_bytes
            ):
                raise RuntimeError(
                    f"hot bytes {self._nbytes} exceed capacity "
                    f"{self.capacity_bytes}"
                )
            owned = []
            for sample, _ in (*self._entries.values(), *self._cold.values()):
                where = self._slot_of.get(id(sample))
                if where is not None:
                    owned.append((id(where[0]), where[1]))
                elif self._aliases_slots(sample):
                    raise RuntimeError("an entry aliases slot storage it does not own")
            if len(set(owned)) != len(owned):
                raise RuntimeError("two live entries share a slot")
            live = [
                (id(pool), slot)
                for pool in self._pools.values()
                for slot, state in enumerate(pool.state)
                if state == _LIVE
            ]
            if sorted(owned) != sorted(live):
                raise RuntimeError(
                    f"slot accounting drifted: {len(owned)} slots owned by "
                    f"entries, {len(live)} marked live"
                )
            allocated = sum(pool.per * len(pool.chunks) for pool in self._pools.values())
            staged = sum(pool.state.count(_STAGED) for pool in self._pools.values())
            return {"hot_nbytes": hot, "cold_nbytes": cold,
                    "entries": len(self._entries), "cold": len(self._cold),
                    "allocated": allocated, "free": allocated - staged - len(live),
                    "staged": staged, "live": len(live),
                    "chunks": sum(len(pool.chunks) for pool in self._pools.values())}

    def as_dataset(self) -> "StorageDataset":
        """Snapshot view usable by a DataLoader (ids frozen at call time)."""
        return StorageDataset(self, self.ids())


class DiskStorageArea(StorageArea):
    """Storage area persisting each sample as one ``.npy`` file.

    Models the paper's node-local SSD deployment (§III-A: "this predefined
    area can be memory, local storage (e.g., local SSDs) as well as a
    parallel file system"): every hot entry is also a file, so the byte
    accounting reflects actual files.

    Writes go through :func:`~repro.utils.fileio.atomic_save` (temp file +
    ``os.replace``), so a crash mid-write can never leave a torn ``.npy``
    behind.
    """

    def __init__(self, root: str | Path, *, capacity_bytes: int | None = None):
        super().__init__(capacity_bytes=capacity_bytes)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, sid: int, label: int) -> Path:
        return self.root / f"sample_{sid:08d}_label_{label}.npy"

    def _installed(self, sids, samples, labels) -> None:
        """One file per new hot entry, whichever way it was installed."""
        for sid, sample, label in zip(sids, samples, labels):
            atomic_save(self._path(sid, label), np.asarray(sample))

    def _removed(self, sid: int, label: int) -> None:
        path = self._path(sid, label)
        if path.exists():
            path.unlink()


class StorageDataset(Dataset):
    """Dataset view over a StorageArea snapshot (index -> entry)."""

    def __init__(self, storage: StorageArea, ids: list[int]):
        self.storage = storage
        self._ids = list(ids)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.storage.get(self._ids[index])

    def __len__(self) -> int:
        return len(self._ids)
