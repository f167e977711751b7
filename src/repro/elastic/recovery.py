"""Shard recovery: rebuild the lost samples of a dead rank on the survivors.

After a failure the training population is short exactly the samples the
dead rank held hot — the :class:`~repro.elastic.ledger.ReplicaLedger` names
them.  :class:`ShardRecovery` runs on the *shrunk* communicator and restores
zero-loss training in four steps:

1. **Locate** — allgather which survivors hold cold replicas of the lost
   gids (the demoted copies the exchange left behind) plus everyone's
   current load, so every survivor sees the identical picture.
2. **Assign** — a deterministic pure function of that picture maps every
   lost gid to a new home: least-loaded survivor first, preferring homes
   that already hold a cold replica (a free promotion), never exceeding a
   survivor's capacity — the paper's ``(1+Q)·N/M`` bound re-based to the
   shrunk size ``M-1`` via ``StorageArea.resize``.
3. **Migrate** — :func:`~repro.elastic.migration.migrate`, the executor
   rejoin shares: replicas whose new home differs from the replica holder
   are transferred point-to-point, gids with *no* live replica are re-read
   from the source dataset by gid (the parallel file system always holds
   the original, §III-A), and every survivor applies the same assignment
   to its ledger copy, so subsequent exchange plans and any later recovery
   stay consistent.

Everything after the two allgathers is deterministic, so no further
agreement rounds are needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.mpi.tags import RECOVERY
from repro.shuffle.storage import StorageArea, StorageFullError

from .ledger import ReplicaLedger
from .migration import PROMOTE, READ, TRANSFER, migrate, scaled_capacity

__all__ = ["ShardRecovery", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What one recovery did, identical on every survivor."""

    dead_ranks: tuple[int, ...]
    lost_gids: int
    from_replica: int
    from_source: int
    transfers: int
    bytes_transferred: int
    capacity_bytes: int | None
    #: (gid, source local rank or None for PFS, dest local rank)
    assignments: tuple[tuple[int, int | None, int], ...] = ()
    detection_latency_s: float = 0.0
    wall_s: float = 0.0
    epoch: int = -1

    def as_dict(self) -> dict:
        """Flat summary for history stats / benchmark tables."""
        return {
            "dead_ranks": list(self.dead_ranks),
            "lost_gids": self.lost_gids,
            "from_replica": self.from_replica,
            "from_source": self.from_source,
            "bytes_transferred": self.bytes_transferred,
            "detection_latency_s": self.detection_latency_s,
            "wall_s": self.wall_s,
            "epoch": self.epoch,
        }


class ShardRecovery:
    """Recovers the samples lost with dead ranks into survivors' storage.

    Parameters
    ----------
    comm:
        The *shrunk* communicator (survivors only).
    storage:
        This survivor's :class:`StorageArea`.
    ledger:
        The replicated :class:`ReplicaLedger` (will be re-pointed in place).
    dataset:
        The source dataset, addressable by gid — the PFS fallback for
        samples with no surviving replica.  ``None`` disables the fallback;
        recovery then fails loudly if a lost gid has no replica.
    old_size:
        Communicator size before the failure; used to re-base the capacity
        bound from ``(1+Q)·N/M`` to ``(1+Q)·N/(M-1)``.
    """

    def __init__(
        self,
        comm,
        storage: StorageArea,
        ledger: ReplicaLedger,
        *,
        dataset=None,
        old_size: int | None = None,
    ) -> None:
        self.comm = comm
        self.storage = storage
        self.ledger = ledger
        self.dataset = dataset
        self.old_size = old_size if old_size is not None else comm.size

    # ----------------------------------------------------------------- driver
    def recover(self, dead_ranks: Sequence[int] | None = None) -> RecoveryReport:
        """Run the full recovery (collective over the shrunk communicator)."""
        comm = self.comm
        t0 = time.perf_counter()
        if dead_ranks is None:
            dead_ranks = tuple(
                sorted(set(self.ledger.holder.values()) - set(comm.group))
            )
        dead_ranks = tuple(int(r) for r in dead_ranks)
        lost = self.ledger.lost_to(dead_ranks)
        self._rebase_capacity()
        # Step 1: one picture of the world on every survivor.
        lost_set = set(lost)
        my_cold = [
            (g, int(np.asarray(self.storage.get_by_gid(g)[0]).nbytes))
            for g in self.storage.cold_gids()
            if g in lost_set
        ]
        cold_by_rank = comm.allgather(my_cold)
        loads = comm.allgather(
            (len(self.storage), self.storage.nbytes, self.storage.capacity_bytes)
        )
        # Step 2: deterministic assignment.
        assignments = self._assign(lost, cold_by_rank, loads)
        # Step 3: move the bytes and re-point the (replicated) ledger.
        moves = [
            (gid, src, dst,
             READ if src is None else PROMOTE if src == dst else TRANSFER)
            for gid, src, dst in assignments
        ]
        # Recovery runs on a freshly shrunk communicator (its own matching
        # context), so its tags cannot collide with exchange traffic.
        nbytes = migrate(
            comm, self.storage, self.ledger, moves,
            tags=RECOVERY, dataset=self.dataset,
        )
        hows = [how for *_, how in moves]
        wall = time.perf_counter() - t0
        return RecoveryReport(
            dead_ranks=dead_ranks,
            lost_gids=len(lost),
            from_replica=len(moves) - hows.count(READ),
            from_source=hows.count(READ),
            transfers=hows.count(TRANSFER),
            bytes_transferred=nbytes,
            capacity_bytes=self.storage.capacity_bytes,
            assignments=tuple(assignments),
            wall_s=wall,
        )

    # ------------------------------------------------------------------ steps
    def _rebase_capacity(self) -> None:
        """Grow the capacity bound from (1+Q)·N/M to (1+Q)·N/(M-1)."""
        cap = self.storage.capacity_bytes
        if cap is None or self.old_size <= self.comm.size:
            return
        self.storage.resize(scaled_capacity(cap, self.old_size, self.comm.size))

    def _sample_nbytes(self, gid: int) -> int:
        """Deterministic size estimate for a gid with no cold replica."""
        if self.dataset is not None:
            return int(np.asarray(self.dataset[gid][0]).nbytes)
        n = len(self.storage)
        return -(-self.storage.nbytes // n) if n else 0

    def _assign(
        self,
        lost: Sequence[int],
        cold_by_rank: Sequence[Sequence[tuple[int, int]]],
        loads: Sequence[tuple[int, int, int | None]],
    ) -> list[tuple[int, int | None, int]]:
        """Map each lost gid to ``(gid, source_rank_or_None, dest_rank)``.

        A pure function of allgathered state, so all survivors compute the
        identical assignment without further communication.
        """
        size = self.comm.size
        cold_holders: dict[int, list[int]] = {}
        cold_size: dict[int, int] = {}
        for rank, entries in enumerate(cold_by_rank):
            for gid, nbytes in entries:
                cold_holders.setdefault(gid, []).append(rank)
                cold_size[gid] = nbytes
        proj_count = [load[0] for load in loads]
        proj_bytes = [load[1] for load in loads]
        caps = [load[2] for load in loads]
        out: list[tuple[int, int | None, int]] = []
        for gid in lost:
            nbytes = cold_size.get(gid)
            if nbytes is None:
                nbytes = self._sample_nbytes(gid)
            holders = cold_holders.get(gid, [])
            fits = [
                r for r in range(size)
                if caps[r] is None or proj_bytes[r] + nbytes <= caps[r]
            ]
            if not fits:
                raise StorageFullError(
                    f"no survivor has room for lost gid {gid} ({nbytes} B); "
                    "capacity bound violated"
                )
            dest = min(
                fits,
                key=lambda r: (proj_count[r], 0 if r in holders else 1, r),
            )
            if dest in holders:
                source: int | None = dest
            elif holders:
                source = holders[0]
            else:
                source = None  # PFS fallback
            if source is None and self.dataset is None:
                raise RuntimeError(
                    f"gid {gid} has no surviving replica and no source "
                    "dataset to re-read it from"
                )
            out.append((gid, source, dest))
            proj_count[dest] += 1
            proj_bytes[dest] += nbytes
        return out
