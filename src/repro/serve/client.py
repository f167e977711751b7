"""The tenant side of the shard service.

Two client shapes cover the two ways training code consumes samples:

* :class:`ServedStorageArea` — a :class:`~repro.shuffle.storage.StorageArea`
  whose entries start as zero-byte *stubs* and materialise lazily through
  the server.  It satisfies the exact seam the PLS
  :class:`~repro.shuffle.scheduler.Scheduler` exercises (``ids`` /
  ``take`` / ``stage`` / ``add_many`` / ``demote``), so a tenant can run
  the paper's exchange schedule against a shared service instead of a
  pre-loaded private shard.
* :class:`ServedDataset` — a map-style :class:`~repro.data.dataset.Dataset`
  plus a :meth:`~ServedDataset.batches` iterator that fetches whole
  batches per request and yields the decoded samples as zero-copy views
  into the server's :class:`~repro.mpi.codec.PackedBatch` payload.  The
  batch iterator composes directly with
  :class:`~repro.data.prefetch.PrefetchLoader` (see
  :meth:`~ServedDataset.loader`), overlapping service round-trips with
  the consumer's compute.

Both talk to anything with the :class:`~repro.serve.server.ShardServer`
``fetch(tenant, dataset, gids) -> PackedBatch`` surface — the in-process
server directly, or a :class:`~repro.serve.wire.WireClient` proxy when the
server lives on another rank.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.prefetch import PrefetchLoader
from repro.mpi.codec import SampleBlock, unpack_samples
from repro.shuffle.storage import StorageArea

__all__ = ["ServedDataset", "ServedStorageArea"]

#: Stub placeholder for a not-yet-fetched sample: zero bytes, so attaching
#: ten thousand remote gids costs no storage budget until they are read.
_STUB = np.empty(0, dtype=np.uint8)


class ServedStorageArea(StorageArea):
    """A storage area whose samples live on a shard server.

    ``attach_gids`` registers the gids this tenant is entitled to as
    zero-byte stub entries — they get real sids, appear in ``ids()`` and
    ``gid_of()``, and cost nothing until read.  ``get`` materialises on
    first touch: it fetches a window of still-stubbed neighbours in one
    batched request (``fetch_span`` wide) and installs the decoded
    zero-copy views in place, after which the area behaves exactly like a
    local one — including ``demote``/``promote`` and capacity accounting,
    which only ever see materialised bytes.

    Locally *received* samples (the scheduler's ``add_many`` during an
    exchange) are ordinary hot entries; the server is only consulted for
    attached stubs.
    """

    def __init__(
        self,
        server,
        tenant: str,
        dataset: str,
        *,
        capacity_bytes: int | None = None,
        fetch_span: int = 16,
    ) -> None:
        if fetch_span < 1:
            raise ValueError(f"fetch_span must be >= 1, got {fetch_span}")
        super().__init__(capacity_bytes=capacity_bytes)
        self.server = server
        self.tenant = tenant
        self.dataset = dataset
        self.fetch_span = fetch_span
        self._stub_sids: set[int] = set()

    def attach_gids(self, gids: Iterable[int]) -> list[int]:
        """Register remote gids as lazy stub entries; returns their sids."""
        sids = []
        with self._lock:
            for gid in gids:
                sid = self.add(_STUB, -1, gid=int(gid))
                self._stub_sids.add(sid)
                sids.append(sid)
        return sids

    def is_stub(self, sid: int) -> bool:
        """True while the entry has not been materialised yet."""
        with self._lock:
            return sid in self._stub_sids

    def get(self, sid: int) -> tuple[np.ndarray, int]:
        """Entry by sid, fetching it from the server on first touch."""
        with self._lock:
            if sid not in self._stub_sids:
                return super().get(sid)
            want = self._fetch_window(sid)
        # Server round-trip happens outside the lock: other worker threads
        # keep reading materialised entries while this one waits.
        batch = self.server.fetch(
            self.tenant, self.dataset, [gid for _sid, gid in want]
        )
        entries = unpack_samples(batch, copy=False)
        batch.adopt()
        with self._lock:
            for (stub_sid, _gid), (sample, label, _g) in zip(want, entries):
                self._materialize(stub_sid, sample, label)
            return super().get(sid)

    def take(self, sids: Sequence[int]) -> SampleBlock:
        """Entries as columns, materialising any that are still stubs (an
        exchange must send the bytes, not the placeholder)."""
        for sid in sids:
            if self.is_stub(sid):
                self.get(sid)
        return super().take(sids)

    def remove(self, sid: int) -> None:
        """Delete an entry; removing an unread stub skips the fetch."""
        with self._lock:
            self._stub_sids.discard(sid)
            super().remove(sid)

    def _fetch_window(self, sid: int) -> list[tuple[int, int]]:
        """The requested stub plus up to ``fetch_span - 1`` still-stubbed
        followers (sid order) — one batched request instead of N small
        ones.  Runs under ``self._lock``."""
        window = [(sid, self.gid_of(sid))]
        if self.fetch_span > 1:
            for other in sorted(s for s in self._stub_sids if s > sid):
                if len(window) >= self.fetch_span:
                    break
                window.append((other, self.gid_of(other)))
        return window

    def _materialize(self, sid: int, sample: np.ndarray, label: int) -> None:
        """Swap a stub's payload in place, keeping its sid and gid.

        Runs under ``self._lock``.  Uses the parent's remove/add cycle for
        correct byte accounting, then re-maps the fresh sid back to the
        original one so scheduler-recorded sids stay valid.
        """
        if sid not in self._stub_sids:
            return
        gid = self.gid_of(sid)
        self.remove(sid)
        new_sid = self.add(sample, label, gid=gid)
        if new_sid != sid:
            entry = self._entries.pop(new_sid)
            self._entries[sid] = entry
            if gid is not None:
                del self._gid_of[new_sid]
                self._gid_of[sid] = gid
                self._sid_of[gid] = sid
        self._stub_sids.discard(sid)

    def materialize_all(self) -> int:
        """Fetch every remaining stub (in ``fetch_span`` batches); returns
        how many entries were materialised."""
        count = 0
        while True:
            with self._lock:
                pending = sorted(self._stub_sids)
            if not pending:
                return count
            self.get(pending[0])
            with self._lock:
                count += len(pending) - len(self._stub_sids)
                if self._stub_sids == set(pending):
                    raise RuntimeError(
                        "materialize_all made no progress; server returned "
                        "no samples for the requested gids"
                    )

    def audit(self) -> dict:
        """Parent audit plus the stub-set invariant (stubs are 0-byte)."""
        report = super().audit()
        with self._lock:
            for sid in self._stub_sids:
                if sid not in self._entries:
                    raise RuntimeError(f"stub sid {sid} has no entry")
                if self._entries[sid][0].nbytes != 0:
                    raise RuntimeError(f"stub sid {sid} holds real bytes")
            report["stubs"] = len(self._stub_sids)
        return report


class ServedDataset(Dataset):
    """Map-style dataset view over a tenant's gids on a shard server.

    ``__getitem__`` does one single-sample round-trip (fine for probing,
    wasteful for training); :meth:`batches` is the real path — one request
    per batch, samples decoded as zero-copy read-only views into the
    response payload.
    """

    def __init__(self, server, tenant: str, dataset: str, gids: Sequence[int]) -> None:
        self.server = server
        self.tenant = tenant
        self.dataset = dataset
        self.gids = [int(g) for g in gids]

    def __len__(self) -> int:
        return len(self.gids)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        if not -len(self) <= index < len(self):
            raise IndexError(f"index {index} out of range for dataset of {len(self)}")
        gid = self.gids[index]
        batch = self.server.fetch(self.tenant, self.dataset, [gid])
        entries = unpack_samples(batch, copy=False)
        batch.adopt()
        sample, label, _gid = entries[0]
        return sample, label

    def batches(
        self, batch_size: int
    ) -> Iterator[list[tuple[np.ndarray, int, int | None]]]:
        """Yield ``(sample, label, gid)`` lists, one server request each.

        The arrays are read-only zero-copy views; the backing buffer is
        adopted out of the server's pool and lives as long as the views.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        for lo in range(0, len(self.gids), batch_size):
            chunk = self.gids[lo : lo + batch_size]
            batch = self.server.fetch(self.tenant, self.dataset, chunk)
            entries = unpack_samples(batch, copy=False)
            batch.adopt()
            yield entries

    def loader(self, batch_size: int, *, depth: int = 2) -> PrefetchLoader:
        """A :class:`~repro.data.prefetch.PrefetchLoader` over
        :meth:`batches` — service round-trips overlap the consumer."""
        return PrefetchLoader(self.batches(batch_size), depth=depth)
