"""The one membership change: plan, migrate, report.

A shrink (a rank died) and an expand (a rank rejoined) both leave the
paper's steady state broken: some samples are hot on no live rank, or the
live ranks no longer hold ``N/M`` each.  :func:`rebalance` puts it back, the
same way in either direction, collectively over the new communicator:

1. **Picture** — one allgather of every live rank's hot order and cold
   gids, so every member sees the identical state.
2. **Plan** — :func:`plan_moves`, a pure function of that picture and of
   the gids the replicated ledger says the dead ranks hold: donations (a dead
   rank's gids, then each over-target rank's newest surplus) homed at the
   least-loaded rank still below its :func:`rebalance_targets` share.
3. **Migrate** — :func:`migrate` carries the moves out: each is
   ``(gid, source, dest, how)`` over local ranks, with ``how`` one of

   * :data:`TRANSFER` — the source sends its copy (hot or cold)
     point-to-point on one ``RECOVERY`` tag;
   * :data:`PROMOTE` — the destination promotes its own cold replica;
   * :data:`READ` — no live replica: the destination re-reads the source
     dataset by gid (the parallel file system always holds the original,
     §III-A).

   Afterwards a gid is hot on its destination only — a live source keeps
   its bytes as a cold replica — and every member re-points its ledger
   copy identically: each gid is held hot by exactly one live rank, the
   without-replacement premise the exchange rests on.
4. **Resize** — the ``(1+Q)·N/M`` capacity bound re-based to the new size:
   grown before a shrink's lost gids arrive, shrunk once an expand's
   donors have given theirs away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.mpi.request import waitall
from repro.mpi.tags import RECOVERY
from repro.shuffle.storage import StorageArea, StorageFullError

from .ledger import ReplicaLedger

__all__ = [
    "TRANSFER",
    "PROMOTE",
    "READ",
    "RebalanceReport",
    "migrate",
    "plan_moves",
    "rebalance",
    "rebalance_targets",
    "scaled_capacity",
]

TRANSFER = "transfer"
PROMOTE = "promote"
READ = "read"


def scaled_capacity(capacity: int | None, old_size: int, new_size: int) -> int | None:
    """The ``(1+Q)·N/M`` bound re-based from ``old_size`` to ``new_size``
    workers, rounded up (``None`` stays unbounded)."""
    return None if capacity is None else -(-capacity * old_size // new_size)


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
    cold: Mapping[int, Sequence[int]],
    lost: Sequence[int],
) -> list[tuple[int, int | None, int, str]]:
    """Every move that brings ``group`` (live world ranks, communicator
    order) back to exactly :func:`rebalance_targets` hot samples each, of
    ``total`` (the replicated ledger's ``N``).

    A pure function of the allgathered picture — ``hot[r]``, rank ``r``'s
    hot gids in storage order, and ``cold[r]``, the gids it holds cold —
    and of ``lost``, the gids the ledger says the dead ranks hold
    (:meth:`~ReplicaLedger.lost_to`), so every member computes the
    identical plan with no further agreement.

    Donations come first from ``lost``, in order, then from each
    over-target rank in group order, newest first, so the surviving prefix
    keeps its order.  Each goes to the least-loaded rank still below its
    target; ties go to a rank holding a cold replica, then to the lowest
    rank.  The source is the live hot holder, else the first cold holder,
    else ``None`` (a PFS read); the move is a :data:`PROMOTE` when the
    destination holds the gid cold.

    Returns ``(gid, source world rank or None, dest world rank, how)``.
    """
    targets = rebalance_targets(total, group)
    counts = {r: len(hot[r]) for r in group}
    cold_sets = {r: set(cold[r]) for r in group}
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
        holders = [r for r in group if gid in cold_sets[r]]
        dst = min(
            (r for r in group if counts[r] < targets[r]),
            key=lambda r: (counts[r], r not in holders, r),
        )
        counts[dst] += 1
        if src is None:
            src = dst if dst in holders else holders[0] if holders else None
        how = (
            PROMOTE if dst in holders else READ if src is None else TRANSFER
        )
        moves.append((gid, src, dst, how))
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
    capacity_bytes: int | None
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
                "promoted": self.count(PROMOTE),
                "transfers": self.count(TRANSFER),
            }
        else:
            side = {
                "dead_ranks": list(self.dead_ranks),
                "lost_gids": self.lost_gids,
                "from_replica": self.lost_gids - self.count(READ),
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
    old_size: int | None = None,
    dataset=None,
) -> RebalanceReport:
    """Run one membership change (collective over the new communicator).

    ``old_size`` is the live size before the change (default: no change),
    for re-basing this rank's capacity bound; ``dataset`` is the source
    dataset, addressable by gid — the PFS fallback for a lost gid with no
    cold replica (``None``: such a gid fails the change loudly).  The
    ledger names the rest: a dead rank still holds gids in it, a joiner
    holds none (every live member holds at least one, as ``N >= M``).
    """
    t0 = time.perf_counter()
    old_size = comm.size if old_size is None else old_size
    picture = comm.allgather((list(storage.hot_gids()), list(storage.cold_gids())))
    hot = {r: h for r, (h, _c) in zip(comm.group, picture)}
    cold = {r: c for r, (_h, c) in zip(comm.group, picture)}
    held = set(ledger.holder.values())
    dead = tuple(sorted(held - set(comm.group)))
    lost = ledger.lost_to(dead)
    moves = plan_moves(len(ledger), comm.group, hot, cold, lost)
    unread = [gid for gid, _src, _dst, how in moves if how == READ]
    if unread and dataset is None:
        raise RuntimeError(
            f"gid {unread[0]} has no surviving replica and no source dataset "
            "to re-read it from"
        )
    capacity = scaled_capacity(storage.capacity_bytes, old_size, comm.size)
    if comm.size < old_size:
        storage.resize(capacity)  # room for the lost gids before they arrive
    index = comm.group.index
    nbytes = migrate(
        comm, storage, ledger,
        [
            (gid, None if src is None else index(src), index(dst), how)
            for gid, src, dst, how in moves
        ],
        dataset=dataset,
    )
    storage.resize(capacity)  # an expand's donors have given theirs away
    return RebalanceReport(
        dead_ranks=dead,
        joiners=tuple(sorted(set(comm.group) - held)),
        lost_gids=len(lost),
        moves=tuple(moves),
        bytes_transferred=nbytes,
        capacity_bytes=storage.capacity_bytes,
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
    install first, in plan order; then promotes, reads and the sources'
    demotes run, in plan order.
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
        _install(storage, np.asarray(sample), int(label), gid)
    for gid, src, dst, how in moves:
        if dst == me:
            if how == PROMOTE:
                storage.promote(gid)
            elif how == READ:
                # One read: the dataset retries its own flaky reads.
                sample, label = dataset[gid]
                _install(storage, np.asarray(sample), int(label), gid)
        elif src == me:
            # The source keeps the bytes cold: a recovery replica within the
            # (1+Q) budget, evicted automatically under capacity pressure.
            sid = storage.sid_of(gid)
            if sid is not None:
                storage.demote(sid)
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


def _install(storage: StorageArea, sample: np.ndarray, label: int, gid: int) -> None:
    try:
        storage.add(sample, label, gid=gid)
    except StorageFullError:
        # The plan respected every rank's target; reaching here means cold
        # replicas crowded the budget — drop them (they are an
        # opportunistic cache) and retry once.
        storage.drop_cold()
        storage.add(sample, label, gid=gid)
