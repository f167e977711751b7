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

Every hot entry lives in a **slot**: a fixed-size row of arrays the area
allocates itself.  The shard a worker starts from is copied in at setup
and a received frame through :meth:`StorageArea.stage`, so the area owns
every byte it serves — the paper's ``(1+Q) * N/M`` holds in physical
rows, not only in the accounting — and a departed sample's bytes are
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
# -> LIVE (owned by exactly one hot entry) -> FREE, or back to STAGED when
# restage() takes its entry out of the hot set to register it again.
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
    runs under one lock, so an area shared between threads never shows a
    half-applied add / remove — the byte and count totals and the sid <->
    gid maps move together (``tests/shuffle/test_storage_concurrency.py``).
    The lock is re-entrant because the ``_installed`` / ``_removed`` hooks
    run under it, and a subclass's hook may read the area back.

    **Slots.**  Every hot entry is a row of a slot this area owns, in
    chunked arrays it allocates itself, one pool per ``(dtype, shape)``
    class.  :meth:`stage` copies a block of samples into free slots and
    hands back one read-only row view per sample; :meth:`add_many`
    registers such rows as entries without touching their bytes, and
    stages anything else first, so no caller's array is kept.  A class's
    chunks hold as many slots as the first call that used it needed, or as
    the area had entries then if that is more (a shard put in with one
    ``add_many``); another chunk is allocated only when every slot of the
    class is taken.  The lowest free slot is claimed first.  A slot has one
    owner (the staging caller, then one hot entry) and is free again once
    that entry is removed — so a departed sample's slot is the next
    arrival's.

    **View validity.**  An array obtained from ``get`` / ``get_by_gid`` /
    ``items`` / :meth:`take` is a read-only slot row, valid for as long as
    its entry stays in the area.  After the entry is removed its slot may
    be rewritten by the next :meth:`stage` or ``add``; whoever needs the
    bytes past that point — another rank's storage under the by-reference
    ``threads`` transport, a cache — takes a copy while the entry is live.
    The exchange packs (copies) rows before it retires them, and the
    elastic transfers send copies.  The other way round, ``add`` and
    :meth:`add_many` copy what they are given: changing the caller's array
    afterwards changes no entry.
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
        """Store a copy of one sample; returns its id.  ``gid`` attaches the
        sample's global identity (source-dataset index) for replica
        tracking.  A one-sample :meth:`add_many`: put a shard in with one
        call, or an empty area's slot chunks are one sample each."""
        return self.add_many([(sample, label, gid)])[0]

    def add_many(
        self, entries: Iterable[tuple[np.ndarray, int, int | None]]
    ) -> list[int]:
        """Store ``(sample, label, gid)`` triples (or a
        :class:`~repro.mpi.codec.SampleBlock`) in order; returns their ids.

        A sample that is a row :meth:`stage` returned is registered as it
        stands: the exchange installs a committed epoch this way, copying
        and allocating nothing.  Any other sample is staged first, copied
        straight from the caller's array into a slot of its class, each
        class's samples claimed at once.  Either way the accounting is
        settled once for the call."""
        if isinstance(entries, SampleBlock):
            samples = entries.samples
            labels, gids = entries.labels.tolist(), entries.gids.tolist()
        else:
            samples, labels, gids = list(zip(*entries)) or ((), (), ())
            labels = [int(label) for label in labels]
            gids = [-1 if gid is None else int(gid) for gid in gids]
        if not labels:
            return []
        with self._lock:
            return self._install_staged(self._claim(samples), labels, gids)

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
        """Delete a stored sample by id; its slot is free again."""
        with self._lock:
            sample, _label, _gid = self._pop(sid)
            pool, slot = self._slot_of[id(sample)]
            pool.release(slot)

    # Only a name: ``benchmarks/perf`` times the retire of a sent sample
    # through it as well as through ``remove``.
    demote = remove

    def restage(self, sids: Sequence[int]) -> SampleBlock:
        """Turn the entries of ``sids`` back into staged rows of their own
        slots, in order, with no byte copied: they leave the hot set like a
        :meth:`remove`, but their slots stay claimed until the block is
        handed to :meth:`add_many` (which registers them again under fresh
        sids — how the exchange keeps a plan round that stays on its rank)
        or :meth:`unstage`."""
        rows, labels, gids = [], [], []
        with self._lock:
            for sid in sids:
                row, label, gid = self._pop(sid)
                pool, slot = self._slot_of[id(row)]
                pool.state[slot] = _STAGED
                rows.append(row)
                labels.append(label)
                gids.append(gid)
        return SampleBlock(
            rows, np.array(labels, dtype=np.int64), np.array(gids, dtype=np.int64)
        )

    def _pop(self, sid: int) -> tuple[np.ndarray, int, int]:
        """Take entry ``sid`` out of the hot set and its accounting; its
        row, label and gid (``-1``: untracked).  Its slot is left as it was,
        LIVE, for the caller to settle (runs under the lock)."""
        try:
            sample, label = self._entries.pop(sid)
        except KeyError:
            raise KeyError(f"no sample with id {sid} in storage") from None
        self._nbytes -= sample.nbytes
        gid = self._gid_of.pop(sid, -1)
        if gid >= 0 and self._sid_of.get(gid) == sid:
            del self._sid_of[gid]
        self._removed(sid, label)
        return sample, label, gid

    def _installed(
        self, sids: Sequence[int], samples: Sequence[np.ndarray], labels: Sequence[int]
    ) -> None:
        """Hook: these hot entries were just registered (by ``add`` /
        ``add_many``).  A persistent subclass writes them out."""

    def _removed(self, sid: int, label: int) -> None:
        """Hook: this hot entry just left the hot set (``remove``, or
        ``restage`` before it is registered again under a new sid)."""

    # ------------------------------------------------------------------ slots
    def stage(self, block: SampleBlock) -> SampleBlock:
        """Copy a block's samples into free slots; returns the block with
        its samples replaced by their read-only row views there.

        A ``(n, *shape)`` array goes into one slot class; a list of arrays
        is split by class, each class's samples claimed at once.  The slots
        stay claimed, outside the byte accounting like the frame the bytes
        came from, until the rows are handed to :meth:`add_many` (which
        makes them entries) or :meth:`unstage`."""
        with self._lock:
            slots = self._stage(block.samples)
        return SampleBlock(
            [pool.rows[slot] for pool, slot in slots], block.labels, block.gids
        )

    def _stage(self, samples) -> list[tuple[_SlotPool, int]]:
        """Copy samples into free slots of their classes, each class's
        claimed at once; their slots, in order (runs under the lock)."""
        if isinstance(samples, np.ndarray):  # a block: one class
            return self._stage_class((samples.dtype, samples.shape[1:]), samples)
        arrays = [np.asarray(sample) for sample in samples]
        classes: dict[tuple, list[int]] = {}
        for i, array in enumerate(arrays):
            classes.setdefault((array.dtype, array.shape), []).append(i)
        slots: list = [None] * len(arrays)
        for key, members in classes.items():
            staged = self._stage_class(key, [arrays[i] for i in members])
            for i, where in zip(members, staged):
                slots[i] = where
        return slots

    def _stage_class(self, key: tuple, samples) -> list[tuple[_SlotPool, int]]:
        """Copy samples of one ``(dtype, shape)`` class into its lowest free
        slots, now STAGED; the slots, in order."""
        pool = self._pools.get(key)
        if pool is None:
            per = max(len(self._entries), len(samples), 1)
            pool = self._pools[key] = _SlotPool(*key, per, self._slot_of)
        slots = pool.claim(len(samples))
        for slot, sample in zip(slots, samples):
            # Whole rows of a block may still be apart, and so may a view.
            pool.write(slot, sample if sample.flags.c_contiguous else sample.copy())
        return [(pool, slot) for slot in slots]

    def _claim(self, samples) -> list[tuple[_SlotPool, int]]:
        """The slot each of ``samples`` is to be an entry in, in order (runs
        under the lock): a row this area staged keeps its own slot, once;
        anything else — a foreign array, a live entry's row, a repeat — is
        staged into a fresh one."""
        slots: list = []
        outside: list[int] = []
        taken = set()
        for i, sample in enumerate(samples):
            where = self._slot_of.get(id(sample))
            if where is None or where[0].state[where[1]] != _STAGED or where in taken:
                outside.append(i)
            taken.add(where)
            slots.append(where)
        staged = self._stage([samples[i] for i in outside])
        for i, where in zip(outside, staged):
            slots[i] = where
        return slots

    def unstage(self, block: SampleBlock) -> None:
        """Free the slots of staged rows that will not be installed (a
        window rolled back, an exchange aborted: nothing was retired, so
        the senders still hold those samples)."""
        with self._lock:
            for row in block.samples:
                pool, slot = self._slot_of.get(id(row), (None, None))
                if pool is not None and pool.state[slot] == _STAGED:
                    pool.release(slot)

    def _install_staged(
        self, slots: list[tuple[_SlotPool, int]], labels: list[int], gids: list[int]
    ) -> list[int]:
        """Register claimed slots' rows as hot entries, in order (runs under
        the lock); gid ``-1`` is untracked."""
        rows = [pool.rows[slot] for pool, slot in slots]
        tracked = [(i, gid) for i, gid in enumerate(gids) if gid >= 0]
        sids = list(itertools.islice(self._ids, len(rows)))
        for pool, slot in slots:
            pool.state[slot] = _LIVE
        self._entries.update(zip(sids, zip(rows, labels)))
        self._nbytes += sum(pool.size for pool, _slot in slots)
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
        inverse, and the slots are consistent: every entry is a slot row,
        no two live entries share one, and the slots marked live are
        exactly those an entry owns (so free + staged + owned =
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
                if where is None:
                    raise RuntimeError("an entry is not a slot row of this area")
                owned.append((id(where[0]), where[1]))
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
    behind.  An entry re-keyed in place (``restage`` then ``add_many``: an
    exchange round the rank drew itself) leaves its old file and is written
    under its new sid, so the files stay one per hot entry.
    """

    def __init__(self, root: str | Path):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, sid: int, label: int) -> Path:
        return self.root / f"sample_{sid:08d}_label_{label}.npy"

    def _installed(self, sids, samples, labels) -> None:
        """One file per new hot entry."""
        for sid, sample, label in zip(sids, samples, labels):
            atomic_save(self._path(sid, label), sample)

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
