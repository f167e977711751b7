"""Per-worker local storage area with byte accounting.

"We assume that each worker's designated portion of the training data
samples is loaded into a predefined storage area before training.  During
training, a worker only processes data samples in its designated storage
area." (§III-A)

:class:`StorageArea` is that predefined area: an id-addressed store of
``(sample, label)`` entries with byte-level accounting, so the paper's
``(1+Q) * N/M`` storage bound can be asserted rather than assumed.
A memory-backed store models node-local RAM/tmpfs; a directory-backed store
(:class:`DiskStorageArea`) models node-local SSD with real files.

Two layers of identity coexist:

* **sid** — an opaque storage-local id, stable across removals.  The
  exchange scheduler addresses entries by sid.
* **gid** — the sample's *global* id (its index in the source dataset),
  attached at ``add`` time.  Gids are what the elastic layer reasons
  about: the :class:`~repro.elastic.ReplicaLedger` records which rank
  holds which gid, and shard recovery re-reads lost gids from the source
  dataset.

The area holds only its hot (trainable) entries: a sent sample is removed
once the exchange commits, so each sample is held by exactly one rank.

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

__all__ = ["StorageArea", "DiskStorageArea", "StorageDataset"]


# Life of a slot: FREE (in its pool's heap) -> STAGED (claimed by stage())
# -> LIVE (owned by exactly one hot entry) -> FREE.
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
    """In-memory sample store with byte accounting.

    Entries are addressed by opaque integer ids that remain stable across
    removals (unlike list indices), which is what the exchange scheduler
    needs: it records ids at ``scheduling()`` time and removes exactly those
    at ``clean_local_storage()`` time even though receives interleave.

    Thread-safe: every mutating operation (and every multi-field read)
    runs under one re-entrant lock, so an area shared between threads
    never shows a half-applied add / remove — the byte and count totals
    and the sid <-> gid maps move together
    (``tests/shuffle/test_storage_concurrency.py``).  The lock is
    re-entrant because ``add_many`` composes ``add``.

    **Slots.**  :meth:`stage` copies a block of same-shaped samples into
    free slots of chunked arrays this area owns and hands back one
    read-only row view per sample; :meth:`add_many` registers such rows as
    entries without touching their bytes.  A slot class is a ``(dtype,
    shape)``; its chunks hold as many slots as the area had entries when
    the class was first staged (the shard), and another chunk is allocated
    only when every slot of the class is taken — exactly where a dict of
    private arrays would have grown.  The lowest free slot is claimed
    first.  A slot has one owner (the staging caller, then one hot entry)
    and is free again once that entry is removed — so a departed sample's
    slot is the next arrival's.  Samples that arrive through :meth:`add`
    are kept as the caller's arrays, as before.

    **View validity.**  An array obtained from ``get`` / ``get_by_gid`` /
    ``items`` / :meth:`take` is valid for as long as its entry stays in
    the area.  After the entry is removed its slot may be rewritten by the
    next :meth:`stage`; whoever needs the bytes past that point — another
    rank's storage under the by-reference ``threads`` transport, a cache —
    takes a copy while the entry is live.
    The exchange packs (copies) rows before it retires them, and the
    elastic transfers send copies.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._entries: dict[int, tuple[np.ndarray, int]] = {}
        self._ids = itertools.count()
        self._nbytes = 0
        self.peak_nbytes = 0
        self.peak_count = 0
        # Global-id bookkeeping for the hot entries (sid <-> gid).
        self._gid_of: dict[int, int] = {}
        self._sid_of: dict[int, int] = {}
        # Slot storage: one pool per (dtype, shape), and which pool and slot
        # a row view (by identity) belongs to.
        self._pools: dict[tuple, _SlotPool] = {}
        self._slot_of: dict[int, tuple[_SlotPool, int]] = {}

    # ------------------------------------------------------------------ CRUD
    def add(self, sample: np.ndarray, label: int, gid: int | None = None) -> int:
        """Store a sample; returns its id.  ``gid`` attaches the sample's
        global identity (source-dataset index) for replica tracking."""
        label = int(label)
        with self._lock:
            sample = self._own(np.asarray(sample))
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
        the accounting is settled once for the block.  Any other
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
            del self._entries[sid]
            self._nbytes -= sample.nbytes
            gid = self._gid_of.pop(sid, None)
            if gid is not None and self._sid_of.get(gid) == sid:
                del self._sid_of[gid]
            self._removed(sid, label)
            self._release(sample)

    # Only a name: ``benchmarks/perf`` times the retire of a sent sample
    # through it as well as through ``remove``.
    demote = remove

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

        A ``(n, *shape)`` array goes into one slot class; a list of arrays
        is staged sample by sample, each into the class of its own dtype
        and shape.  The slots stay claimed, outside the byte accounting
        like the frame the bytes came from, until the rows are handed to
        :meth:`add_many` (which makes them entries) or :meth:`unstage`."""
        samples = block.samples
        with self._lock:
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

    def unstage(self, block: SampleBlock) -> None:
        """Free the slots of staged rows that will not be installed (a
        window rolled back, an exchange aborted: nothing was retired, so
        the senders still hold those samples)."""
        with self._lock:
            for row in block.samples:
                pool, slot = self._slot_of.get(id(row), (None, None))
                if pool is not None and pool.state[slot] == _STAGED:
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
        """Give up the slot of an entry that just left the hot map (no-op
        for a sample that lives outside the slots)."""
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
        """Fetch ``(sample, label)`` for a hot global id."""
        with self._lock:
            try:
                return self._entries[self._sid_of[gid]]
            except KeyError:
                raise KeyError(f"gid {gid} not in storage") from None

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

        The invariants a concurrent add/remove race would break: ``nbytes``
        equals the sum of hot entry bytes, the sid<->gid maps are mutually
        inverse, and the slots are consistent: no two live entries share
        one, none merely aliases slot storage, and the slots marked live
        are exactly those an entry owns (so free + staged + owned =
        allocated).  Raises :class:`RuntimeError` on the first
        violation — the concurrency hammer test calls this between (and
        after) thread storms.
        """
        with self._lock:
            hot = sum(sample.nbytes for sample, _ in self._entries.values())
            if hot != self._nbytes:
                raise RuntimeError(
                    f"hot byte accounting drifted: tracked {self._nbytes}, "
                    f"actual {hot}"
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
            owned = []
            for sample, _ in self._entries.values():
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
            return {"hot_nbytes": hot, "entries": len(self._entries),
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

    def __init__(self, root: str | Path):
        super().__init__()
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
