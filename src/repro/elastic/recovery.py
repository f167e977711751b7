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
3. **Transfer** — point-to-point ``isend``/``irecv`` of replicas whose new
   home differs from the replica holder; gids with *no* live replica fall
   back to re-reading the source dataset by gid (the parallel file system
   always holds the original, §III-A).
4. **Re-point** — every survivor applies the same assignment to its ledger
   copy, so subsequent exchange plans and any later recovery stay
   consistent.

Everything after the two allgathers is deterministic, so no further
agreement rounds are needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.mpi.request import waitall
from repro.mpi.tags import RECOVERY
from repro.shuffle.storage import StorageArea, StorageFullError
from repro.utils.retry import default_retrier

from .ledger import ReplicaLedger

__all__ = ["ShardRecovery", "RecoveryReport", "RECOVERY_TAG_BASE"]

#: Tag space for recovery transfers (allocated in repro.mpi.tags).  Recovery
#: runs on a freshly shrunk communicator (its own matching context), so these
#: cannot collide with exchange traffic; the registry range just keeps them
#: recognisable in traces and lintable by SPMD006.
RECOVERY_TAG_BASE = RECOVERY.base


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
    redone_epochs: int = 0

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
        # Step 3: move the bytes.
        from_replica, from_source, transfers, nbytes = self._execute(assignments)
        # Step 4: re-point the (replicated) ledger.
        for gid, _src, dst in assignments:
            self.ledger.reassign(gid, comm.group[dst])
        missing = self.ledger.missing_from(comm.group)
        if missing:
            raise RuntimeError(
                f"recovery incomplete: {len(missing)} gid(s) still "
                f"unheld (first: {missing[:5]})"
            )
        wall = time.perf_counter() - t0
        return RecoveryReport(
            dead_ranks=dead_ranks,
            lost_gids=len(lost),
            from_replica=from_replica,
            from_source=from_source,
            transfers=transfers,
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
        self.storage.resize(-(-cap * self.old_size // self.comm.size))

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

    def _execute(
        self, assignments: Sequence[tuple[int, int | None, int]]
    ) -> tuple[int, int, int, int]:
        """Perform the transfers; returns (from_replica, from_source,
        p2p transfers, bytes moved over the wire)."""
        comm = self.comm
        me = comm.rank
        send_reqs = []
        recv_reqs: list[tuple[int, object]] = []
        nbytes = transfers = from_replica = from_source = 0
        for idx, (gid, src, dst) in enumerate(assignments):
            # Wraps modulo the range width; FIFO matching per (source, tag)
            # channel keeps reused tags unambiguous within one recovery.
            tag = RECOVERY.tag(idx)
            if src is not None and src != dst:
                if me == src:
                    sample, label = self.storage.get_by_gid(gid)
                    # A copy: the by-reference transport would hand the peer
                    # a view of our storage, valid only while our entry lives
                    # (StorageArea's view-validity rule).
                    send_reqs.append(
                        comm.isend((np.array(sample), label, gid), dest=dst, tag=tag)
                    )
                if me == dst:
                    recv_reqs.append((gid, comm.irecv(source=src, tag=tag)))
            if src is not None:
                from_replica += 1
                if src != dst:
                    transfers += 1
            else:
                from_source += 1
        waitall(send_reqs)
        for gid, req in recv_reqs:
            sample, label, wire_gid = req.wait()
            if wire_gid != gid:
                raise RuntimeError(
                    f"recovery transfer mismatch: expected gid {gid}, "
                    f"got {wire_gid}"
                )
            nbytes += int(np.asarray(sample).nbytes)
            self._install(np.asarray(sample), int(label), gid)
        for gid, src, dst in assignments:
            if dst != me:
                continue
            if src == me:
                self.storage.promote(gid)
            elif src is None:
                # PFS fallback read: the source dataset may sit on a flaky
                # parallel file system, so recovery retries like any other
                # storage read (shared policy -> shared counters).
                sample, label = default_retrier().call(
                    lambda attempt: self.dataset[gid], key=f"recover:{gid}"
                )
                self._install(np.asarray(sample), int(label), gid)
        # Byte count is global (every survivor reports the same number).
        nbytes = comm.allreduce(nbytes)
        return from_replica, from_source, transfers, int(nbytes)

    def _install(self, sample: np.ndarray, label: int, gid: int) -> None:
        try:
            self.storage.add(sample, label, gid=gid)
        except StorageFullError:
            # The assignment already respected every survivor's capacity;
            # reaching here means cold replicas crowded the budget — drop
            # them (they are an opportunistic cache) and retry once.
            self.storage.drop_cold()
            self.storage.add(sample, label, gid=gid)
