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
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.fileio import atomic_save
from repro.utils.retry import Retrier, default_retrier

__all__ = ["StorageArea", "DiskStorageArea", "StorageFullError", "StorageDataset"]


class StorageFullError(RuntimeError):
    """Adding a sample would exceed the storage area's byte capacity."""


class StorageArea:
    """In-memory sample store with byte capacity accounting.

    Entries are addressed by opaque integer ids that remain stable across
    removals (unlike list indices), which is what the exchange scheduler
    needs: it records ids at ``scheduling()`` time and removes exactly those
    at ``clean_local_storage()`` time even though receives interleave.

    Thread-safe: every mutating operation (and every multi-field read)
    runs under one re-entrant lock.  A storage area used to be touched by
    exactly one rank thread; the shard server
    (:class:`~repro.serve.ShardServer`) shares one area across its worker
    threads, so the add/demote/promote cache paths — the same shape as the
    PR-5 ``_load_chunk`` race — must be atomic.  The lock is re-entrant
    because ``demote``/``promote`` compose ``get``/``remove``/``add``.
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

    # ------------------------------------------------------------------ CRUD
    def add(self, sample: np.ndarray, label: int, gid: int | None = None) -> int:
        """Store a sample; returns its id.  ``gid`` attaches the sample's
        global identity (source-dataset index) for replica tracking.

        If the configured capacity would be exceeded, cold replicas are
        evicted oldest-first to make room; only when the *hot* set alone
        cannot fit is :class:`StorageFullError` raised."""
        sample = np.asarray(sample)
        size = sample.nbytes
        with self._lock:
            if gid is not None:
                # A hot add supersedes any cold replica of the same sample.
                self._evict_cold_gid(gid)
            if self.capacity_bytes is not None:
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
            sid = next(self._ids)
            self._entries[sid] = (sample, int(label))
            self._nbytes += size
            if gid is not None:
                self._gid_of[sid] = int(gid)
                self._sid_of[int(gid)] = sid
            self.peak_nbytes = max(self.peak_nbytes, self._nbytes)
            self.peak_count = max(self.peak_count, len(self._entries))
            return sid

    def add_many(
        self, entries: Iterable[tuple[np.ndarray, int, int | None]]
    ) -> list[int]:
        """Store ``(sample, label, gid)`` triples in order; returns their ids.

        The exchange installs a whole committed epoch with one call, as
        private copies.  Samples may also be read-only zero-copy views into
        a received envelope (the serve tier) — ``add`` keeps them un-copied,
        so the envelope's backing buffer stays alive as long as they do."""
        with self._lock:
            return [self.add(sample, label, gid=gid) for sample, label, gid in entries]

    def get(self, sid: int) -> tuple[np.ndarray, int]:
        """Fetch the (sample, label) pair for an id (KeyError if absent)."""
        try:
            with self._lock:
                return self._entries[sid]
        except KeyError:
            raise KeyError(f"no sample with id {sid} in storage") from None

    def remove(self, sid: int) -> None:
        """Delete a stored sample by id."""
        with self._lock:
            sample, _ = self.get(sid)
            del self._entries[sid]
            self._nbytes -= sample.nbytes
            gid = self._gid_of.pop(sid, None)
            if gid is not None and self._sid_of.get(gid) == sid:
                del self._sid_of[gid]

    # -------------------------------------------------------- global identity
    def gid_of(self, sid: int) -> int | None:
        """Global id attached to a hot entry, or None if untracked."""
        with self._lock:
            return self._gid_of.get(sid)

    def sid_of(self, gid: int) -> int | None:
        """Hot storage id currently holding ``gid``, or None."""
        with self._lock:
            return self._sid_of.get(gid)

    def has_gid(self, gid: int) -> bool:
        """Whether ``gid`` is held hot (trainable) in this area."""
        with self._lock:
            return gid in self._sid_of

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
            gid = self._gid_of.get(sid)
            sample, label = self.get(sid)
            self.remove(sid)
            if gid is None:
                return False
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
        size = sample.nbytes
        with self._lock:
            self._evict_cold_gid(gid)
            if self.capacity_bytes is not None:
                while (
                    self._nbytes + self._cold_nbytes + size > self.capacity_bytes
                    and self._cold
                ):
                    self._evict_cold_gid(next(iter(self._cold)))
                if self._nbytes + self._cold_nbytes + size > self.capacity_bytes:
                    return False
            self._cold[int(gid)] = (sample, int(label))
            self._cold_nbytes += size
            return True

    def promote(self, gid: int) -> int:
        """Re-activate a cold replica as a hot entry; returns its new sid."""
        with self._lock:
            try:
                sample, label = self._cold[gid]
            except KeyError:
                raise KeyError(
                    f"gid {gid} has no cold replica to promote"
                ) from None
            self._evict_cold_gid(gid)
            return self.add(sample, label, gid=gid)

    def cold_gids(self) -> list[int]:
        """Global ids of the cold replicas currently cached (oldest first)."""
        with self._lock:
            return list(self._cold.keys())

    def has_cold(self, gid: int) -> bool:
        """Whether a cold replica of ``gid`` is cached."""
        with self._lock:
            return gid in self._cold

    def _evict_cold_gid(self, gid: int) -> None:
        entry = self._cold.pop(gid, None)
        if entry is not None:
            self._cold_nbytes -= entry[0].nbytes

    def drop_cold(self) -> int:
        """Evict every cold replica; returns the number evicted."""
        with self._lock:
            n = len(self._cold)
            self._cold.clear()
            self._cold_nbytes = 0
            return n

    @property
    def cold_nbytes(self) -> int:
        """Bytes held by cold replicas (shares the capacity budget)."""
        with self._lock:
            return self._cold_nbytes

    @property
    def free_bytes(self) -> int | None:
        """Capacity headroom counting only hot bytes (cold is evictable);
        None when the area is unbounded."""
        with self._lock:
            if self.capacity_bytes is None:
                return None
            return self.capacity_bytes - self._nbytes

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

    def __contains__(self, sid: int) -> bool:
        with self._lock:
            return sid in self._entries

    @property
    def nbytes(self) -> int:
        """Total bytes currently stored."""
        with self._lock:
            return self._nbytes

    def labels(self) -> np.ndarray:
        """Labels of all stored samples, in insertion order."""
        with self._lock:
            return np.array(
                [label for _, label in self._entries.values()], dtype=np.int64
            )

    def audit(self) -> dict[str, int]:
        """Check the accounting invariants under the lock; returns totals.

        The invariants a concurrent add/demote/promote race would break:
        ``nbytes`` equals the sum of hot entry bytes, ``cold_nbytes``
        equals the sum of cold replica bytes, the sid<->gid maps are
        mutually inverse, no gid is simultaneously hot and cold, and the
        capacity bound holds.  Raises :class:`RuntimeError` on the first
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
                if gid in self._cold:
                    raise RuntimeError(f"gid {gid} is both hot and cold")
            if (
                self.capacity_bytes is not None
                and self._nbytes > self.capacity_bytes
            ):
                raise RuntimeError(
                    f"hot bytes {self._nbytes} exceed capacity "
                    f"{self.capacity_bytes}"
                )
            return {"hot_nbytes": hot, "cold_nbytes": cold,
                    "entries": len(self._entries), "cold": len(self._cold)}

    def as_dataset(self) -> "StorageDataset":
        """Snapshot view usable by a DataLoader (ids frozen at call time)."""
        return StorageDataset(self, self.ids())


class DiskStorageArea(StorageArea):
    """Storage area persisting each sample as one ``.npy`` file.

    Models the paper's node-local SSD deployment (§III-A: "this predefined
    area can be memory, local storage (e.g., local SSDs) as well as a
    parallel file system"): entries survive process restart and the byte
    accounting reflects actual files.

    Writes go through :func:`~repro.utils.fileio.atomic_save` (temp file +
    ``os.replace``), so a crash mid-write can never leave a torn ``.npy``
    behind; reads retry transient ``OSError``/``ValueError`` with capped
    exponential backoff.  ``fault_hook(op, path, attempt)`` is the chaos
    seam: it runs before each physical read attempt and may raise the
    injected fault (see :class:`repro.faults.ChaosEngine.storage_hook`).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        capacity_bytes: int | None = None,
        retrier: Retrier | None = None,
        fault_hook=None,
    ):
        super().__init__(capacity_bytes=capacity_bytes)
        self.root = Path(root)
        self.retrier = retrier if retrier is not None else default_retrier()
        self.fault_hook = fault_hook
        self.root.mkdir(parents=True, exist_ok=True)
        # Reload anything already on disk (restart support).
        for f in sorted(self.root.glob("sample_*.npy")):
            label = int(f.stem.split("_label_")[1])
            super().add(self._read(f), label)
            f.unlink()  # re-persisted below with the new id
        for sid, sample, label in list(self.items()):
            atomic_save(self._path(sid, label), sample)

    def _path(self, sid: int, label: int) -> Path:
        return self.root / f"sample_{sid:08d}_label_{label}.npy"

    def _read(self, path: Path) -> np.ndarray:
        def load(attempt: int) -> np.ndarray:
            if self.fault_hook is not None:
                self.fault_hook("read", str(path), attempt)
            return np.load(path)

        return self.retrier.call(load, key=str(path))

    def add(self, sample: np.ndarray, label: int, gid: int | None = None) -> int:
        """Append/record one entry."""
        with self._lock:
            sid = super().add(sample, label, gid=gid)
            atomic_save(self._path(sid, int(label)), np.asarray(sample))
            return sid

    def remove(self, sid: int) -> None:
        """Delete a stored sample by id."""
        with self._lock:
            _, label = self.get(sid)
            super().remove(sid)
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
