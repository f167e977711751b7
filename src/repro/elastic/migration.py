"""The one membership change: plan, migrate, report.

A shrink (a rank died) and an expand (a rank rejoined) both leave the
paper's steady state broken: some samples are hot on no live rank, or the
live ranks no longer hold ``N/M`` each.  :func:`rebalance` puts it back, the
same way in either direction, collectively over the new communicator:

1. **Picture** — one allgather of every live rank's hot order, so every
   member sees the identical state.
2. **Plan** — :func:`plan_moves`, a pure function of that picture and of
   the gids the replicated ledger says the dead ranks hold: donations (a dead
   rank's gids, then each over-target rank's newest surplus) homed at the
   least-loaded rank still below its :func:`rebalance_targets` share.
3. **Migrate** — :func:`migrate` carries the moves out: each is
   ``(gid, source, dest, how)`` over local ranks, with ``how`` one of

   * :data:`TRANSFER` — a live hot holder sends its copy point-to-point
     on one ``RECOVERY`` tag and removes its own;
   * :data:`READ` — a lost gid: the destination re-reads the source
     dataset by gid (the parallel file system always holds the original,
     §III-A).

   Afterwards a gid is held on its destination only, and every member
   re-points its ledger copy identically: each gid is held by exactly one
   live rank, the without-replacement premise the exchange rests on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.mpi.request import waitall
from repro.mpi.tags import RECOVERY
from repro.shuffle.storage import StorageArea

from .ledger import ReplicaLedger

__all__ = [
    "TRANSFER",
    "READ",
    "RebalanceReport",
    "migrate",
    "plan_moves",
    "rebalance",
    "rebalance_targets",
]

TRANSFER = "transfer"
READ = "read"


def rebalance_targets(total: int, group: Sequence[int]) -> dict[int, int]:
    """Per-rank hot-sample targets for ``total`` samples over ``group``.

    The paper's ``N/M`` share: ``total // M`` each, with the first
    ``total mod M`` ranks in group order holding one extra — the same
    uneven split the initial partitioner produces.
    """
    base, extra = divmod(total, len(group))
    return {r: base + (1 if i < extra else 0) for i, r in enumerate(group)}


def plan_moves(
    total: int,
    group: Sequence[int],
    hot: Mapping[int, Sequence[int]],
    lost: Sequence[int],
) -> list[tuple[int, int | None, int, str]]:
    """Every move that brings ``group`` (live world ranks, communicator
    order) back to exactly :func:`rebalance_targets` hot samples each, of
    ``total`` (the replicated ledger's ``N``).

    A pure function of the allgathered picture — ``hot[r]``, rank ``r``'s
    hot gids in storage order — and of ``lost``, the gids the ledger says
    the dead ranks hold (:meth:`~ReplicaLedger.lost_to`), so every member
    computes the identical plan with no further agreement.

    Donations come first from ``lost``, in order, then from each
    over-target rank in group order, newest first, so the surviving prefix
    keeps its order.  Each goes to the least-loaded rank still below its
    target, ties to the lowest rank.  A surplus gid is a :data:`TRANSFER`
    from its live hot holder; a lost gid is a :data:`READ` (source
    ``None``: the PFS).

    Returns ``(gid, source world rank or None, dest world rank, how)``.
    """
    targets = rebalance_targets(total, group)
    counts = {r: len(hot[r]) for r in group}
    donations = [(int(gid), None) for gid in lost]
    for r in group:
        surplus = counts[r] - targets[r]
        if surplus > 0:
            donations += [(int(g), r) for g in reversed(hot[r][-surplus:])]
    slots = sum(max(0, targets[r] - counts[r]) for r in group)
    if len(donations) != slots:
        raise ValueError(
            f"rebalance imbalance: {len(donations)} donated gid(s) vs "
            f"{slots} receiver slot(s) — ledger and storage disagree"
        )
    moves: list[tuple[int, int | None, int, str]] = []
    for gid, src in donations:
        dst = min(
            (r for r in group if counts[r] < targets[r]),
            key=lambda r: (counts[r], r),
        )
        counts[dst] += 1
        moves.append((gid, src, dst, READ if src is None else TRANSFER))
    return moves


@dataclass
class RebalanceReport:
    """What one membership change did, identical on every member."""

    dead_ranks: tuple[int, ...]
    joiners: tuple[int, ...]
    lost_gids: int
    #: (gid, source world rank or None for PFS, dest world rank, how)
    moves: tuple[tuple[int, int | None, int, str], ...]
    bytes_transferred: int
    detection_latency_s: float = 0.0
    wall_s: float = 0.0
    epoch: int = -1

    def count(self, how: str) -> int:
        return sum(move[3] == how for move in self.moves)

    def as_dict(self) -> dict:
        """Flat summary for history stats / benchmark tables: a rejoin's
        (what moved, how) or a recovery's (what was lost, where it came
        back from)."""
        if self.joiners:
            side = {
                "joiners": list(self.joiners),
                "moved_gids": len(self.moves),
                "transfers": self.count(TRANSFER),
            }
        else:
            side = {
                "dead_ranks": list(self.dead_ranks),
                "lost_gids": self.lost_gids,
                "from_source": self.count(READ),
                "detection_latency_s": self.detection_latency_s,
            }
        return {
            **side,
            "bytes_transferred": self.bytes_transferred,
            "wall_s": self.wall_s,
            "epoch": self.epoch,
        }


def rebalance(
    comm,
    storage: StorageArea,
    ledger: ReplicaLedger,
    *,
    dataset=None,
) -> RebalanceReport:
    """Run one membership change (collective over the new communicator).

    ``dataset`` is the source dataset, addressable by gid — where a lost
    gid is re-read from (``None``: a lost gid fails the change loudly).
    The ledger names the rest: a dead rank still holds gids in it, a joiner
    holds none (every live member holds at least one, as ``N >= M``).
    """
    t0 = time.perf_counter()
    picture = comm.allgather(list(storage.hot_gids()))
    hot = dict(zip(comm.group, picture))
    held = set(ledger.holder.values())
    dead = tuple(sorted(held - set(comm.group)))
    lost = ledger.lost_to(dead)
    moves = plan_moves(len(ledger), comm.group, hot, lost)
    if lost and dataset is None:
        raise RuntimeError(
            f"gid {lost[0]} has no surviving copy and no source dataset "
            "to re-read it from"
        )
    index = comm.group.index
    nbytes = migrate(
        comm, storage, ledger,
        [
            (gid, None if src is None else index(src), index(dst), how)
            for gid, src, dst, how in moves
        ],
        dataset=dataset,
    )
    return RebalanceReport(
        dead_ranks=dead,
        joiners=tuple(sorted(set(comm.group) - held)),
        lost_gids=len(lost),
        moves=tuple(moves),
        bytes_transferred=nbytes,
        wall_s=time.perf_counter() - t0,
    )


def migrate(
    comm,
    storage: StorageArea,
    ledger: ReplicaLedger,
    moves: Sequence[tuple[int, int | None, int, str]],
    *,
    dataset=None,
) -> int:
    """Carry out ``moves`` (collective); returns the bytes that crossed
    the wire, summed over every member.

    Move ``i`` transfers on ``RECOVERY.tag(i)``.  Received transfers
    install first, in plan order; then reads and the sources' removals
    run, in plan order.
    """
    me = comm.rank
    send_reqs = []
    recv_reqs: list[tuple[int, object]] = []
    for idx, (gid, src, dst, how) in enumerate(moves):
        if how != TRANSFER:
            continue
        # Wraps modulo the range width; FIFO matching per (source, tag)
        # channel keeps reused tags unambiguous within one migration.
        tag = RECOVERY.tag(idx)
        if me == src:
            sample, label = storage.get_by_gid(gid)
            # A copy: the by-reference transport would hand the peer a view
            # of our storage, valid only while our entry lives
            # (StorageArea's view-validity rule).
            send_reqs.append(
                comm.isend((np.array(sample), label, gid), dest=dst, tag=tag)
            )
        if me == dst:
            recv_reqs.append((gid, comm.irecv(source=src, tag=tag)))
    waitall(send_reqs)
    nbytes = 0
    for gid, req in recv_reqs:
        sample, label, wire_gid = req.wait()
        if wire_gid != gid:
            raise RuntimeError(
                f"migration transfer mismatch: expected gid {gid}, got {wire_gid}"
            )
        nbytes += int(np.asarray(sample).nbytes)
        storage.add(np.asarray(sample), int(label), gid=gid)
    for gid, src, dst, how in moves:
        if dst == me and how == READ:
            # One read: the dataset retries its own flaky reads.
            sample, label = dataset[gid]
            storage.add(np.asarray(sample), int(label), gid=gid)
        elif src == me:
            storage.remove(storage.sid_of(gid))
    # Byte count is global (every member reports the same number).
    nbytes = int(comm.allreduce(nbytes))
    for gid, _src, dst, _how in moves:
        ledger.reassign(gid, comm.group[dst])
    missing = ledger.missing_from(comm.group)
    if missing:
        raise RuntimeError(
            f"migration incomplete: {len(missing)} gid(s) still unheld "
            f"(first: {missing[:5]})"
        )
    return nbytes

