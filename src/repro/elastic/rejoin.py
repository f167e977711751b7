"""Rank rejoin: rebalance shards back toward N/M when a rank returns.

Shard recovery (:mod:`repro.elastic.recovery`) is the *degrade* half of
elasticity: a dead rank's samples crowd onto ``M-1`` survivors, each of
which re-bases its capacity to ``(1+Q)·N/(M-1)``.  This module is the
*heal* half.  After :meth:`~repro.mpi.communicator.Communicator.expand`
re-admits the rank, three steps restore the paper's steady state:

1. **Handshake** — on the expanded communicator, the lowest surviving
   member sends each joiner the job state it missed (epoch, seed, ledger,
   scheduler run state, model/optimizer state, capacity) on
   ``JOIN.tag(0)``; the joiner ACKs on ``JOIN.tag(1)``.  No rebalance
   bytes can race the state hand-over: the rebalance opens with a
   collective the joiners enter only once their state is installed.
2. **Rebalance** — :func:`plan_rebalance`, the deterministic inverse of
   ``ShardRecovery._assign``: overloaded ranks donate hot samples from the
   *end* of their storage order until every live rank holds its ``N/M``
   share (first ``N mod M`` ranks in group order hold one extra).  A
   destination already holding a cold replica promotes it for free;
   otherwise the hot holder transfers the bytes on ``JOIN.tag(2+i)``.
   :func:`~repro.elastic.migration.migrate`, the executor recovery
   shares, carries the plan out: donors demote what they gave away (the
   bytes stay behind as cold replicas, within budget), and every rank
   applies the identical ledger re-pointing.
3. **Shrink back** — survivors resize their capacity bound from the
   degraded ``(1+Q)·N/(M-k)`` back toward ``(1+Q)·N/M``.

With capacity restored, the degraded-Q deficit machinery repays faster by
construction: ``scheduling()`` offers ``base + q_deficit`` capped at the
local shard size, and the global min over *balanced* shards is no longer
pinned down by an overloaded survivor's cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.mpi.tags import JOIN
from repro.shuffle.storage import StorageArea

from .ledger import ReplicaLedger
from .migration import PROMOTE, TRANSFER, migrate, scaled_capacity

__all__ = [
    "RejoinReport",
    "plan_rebalance",
    "rebalance_targets",
    "join_handshake",
    "RankRejoin",
]

#: JOIN handshake tag offsets (see module docstring and repro.mpi.tags).
_STATE_TAG = 0
_ACK_TAG = 1
_TRANSFER_TAG_BASE = 2


@dataclass
class RejoinReport:
    """What one rejoin rebalance did, identical on every member."""

    joiners: tuple[int, ...]
    moved_gids: int
    promoted: int
    transfers: int
    bytes_transferred: int
    capacity_bytes: int | None
    #: (gid, src world rank, dst world rank, promoted_at_dest)
    plan: tuple[tuple[int, int, int, bool], ...] = ()
    wall_s: float = 0.0
    epoch: int = -1

    def as_dict(self) -> dict:
        """Flat summary for history stats / benchmark tables."""
        return {
            "joiners": list(self.joiners),
            "moved_gids": self.moved_gids,
            "promoted": self.promoted,
            "transfers": self.transfers,
            "bytes_transferred": self.bytes_transferred,
            "wall_s": self.wall_s,
            "epoch": self.epoch,
        }


def rebalance_targets(total: int, group: Sequence[int]) -> dict[int, int]:
    """Per-rank hot-sample targets for ``total`` samples over ``group``.

    The paper's ``N/M`` share: ``total // M`` each, with the first
    ``total mod M`` ranks in group order holding one extra — the same
    uneven split the initial partitioner produces.
    """
    base, extra = divmod(total, len(group))
    return {r: base + (1 if i < extra else 0) for i, r in enumerate(group)}


def plan_rebalance(
    ledger: ReplicaLedger,
    group: Sequence[int],
    hot_by_rank: Mapping[int, Sequence[int]],
    cold_by_rank: Mapping[int, Sequence[int]] | None = None,
) -> list[tuple[int, int, int, bool]]:
    """Deterministic migration plan back toward ``N/M`` per rank.

    The inverse of ``ShardRecovery._assign``: a pure function of the
    replicated ledger and the (allgathered) per-rank hot orders, so every
    member computes the identical plan with no further agreement.

    Parameters
    ----------
    ledger:
        The replicated gid -> world-rank map (its length is ``N``).
    group:
        Live world ranks, in communicator group order.
    hot_by_rank:
        World rank -> that rank's hot gids in storage insertion order.
        Donors give from the *end* — the most recently arrived samples —
        so the surviving prefix keeps its order (selection permutations
        and epoch loaders iterate insertion order).
    cold_by_rank:
        World rank -> gids the rank holds cold replicas of.  A planned
        destination that already holds the bytes cold promotes them
        locally instead of receiving a transfer.

    Returns
    -------
    list of ``(gid, src_world, dst_world, promote)`` — ``src_world`` is
    the current hot holder (it demotes its copy), ``promote`` means the
    destination promotes its own cold replica and no bytes move.
    """
    group = tuple(group)
    targets = rebalance_targets(len(ledger), group)
    counts = {r: len(hot_by_rank.get(r, ())) for r in group}
    cold_sets = {
        r: set(cold_by_rank.get(r, ())) for r in group
    } if cold_by_rank is not None else {r: set() for r in group}

    # Receiver slots in group order: rank r appears need(r) times.
    slots: list[int] = []
    for r in group:
        slots.extend([r] * max(0, targets[r] - counts[r]))
    # Donated gids in group order, each donor giving from the end of its
    # hot order (newest first).
    donations: list[tuple[int, int]] = []
    for r in group:
        surplus = counts[r] - targets[r]
        if surplus > 0:
            hot = list(hot_by_rank[r])
            donations.extend((int(g), r) for g in reversed(hot[-surplus:]))
    if len(donations) != len(slots):
        raise ValueError(
            f"rebalance imbalance: {len(donations)} donated gid(s) vs "
            f"{len(slots)} receiver slot(s) — ledger and storage disagree"
        )

    # Pair donations to slots, preferring destinations that hold a cold
    # replica of the gid (a free promotion).  Greedy in donation order over
    # deterministic inputs, so the pairing is deterministic too.
    plan: list[tuple[int, int, int, bool]] = []
    remaining = list(slots)
    for gid, src in donations:
        dst_idx = next(
            (i for i, d in enumerate(remaining) if gid in cold_sets[d]),
            0,
        )
        dst = remaining.pop(dst_idx)
        plan.append((gid, src, dst, gid in cold_sets[dst]))
    return plan


def join_handshake(comm, joiners: Sequence[int], state: dict | None = None):
    """The tagged JOIN handshake on the expanded communicator.

    The lowest surviving (non-joiner) member is the handshake root: it
    sends ``state`` (the job context a joiner missed while dead) to each
    joiner, and each joiner ACKs.

    No barrier follows.  No member can post a rebalance transfer
    (``JOIN.tag(2+i)``) before every joiner holds the state it assumes,
    by program order alone: a joiner installs the returned state before
    it calls :meth:`RankRejoin.rebalance`, which opens with
    ``comm.allgather``, and no member leaves that collective, let alone
    reaches the transfers, before every joiner has entered it.  A live
    heal under control-plane ``delay`` / ``dup`` runs the same with and
    without a barrier here, on both backends
    (``tests/faults/test_chaos_train.py`` pins the ordering).

    Returns the received state on joiners, ``None`` on existing members.
    """
    joiners = tuple(sorted(set(joiners)))
    me_world = comm.group[comm.rank]
    root = min(r for r in comm.group if r not in joiners)
    root_local = comm.group.index(root)
    received = None
    if me_world in joiners:
        received = comm.recv(source=root_local, tag=JOIN.tag(_STATE_TAG))
        comm.send(("join-ack", me_world), dest=root_local, tag=JOIN.tag(_ACK_TAG))
    elif me_world == root:
        for j in joiners:
            comm.send(state, dest=comm.group.index(j), tag=JOIN.tag(_STATE_TAG))
        for j in joiners:
            kind, who = comm.recv(
                source=comm.group.index(j), tag=JOIN.tag(_ACK_TAG)
            )
            if kind != "join-ack" or who != j:
                raise RuntimeError(
                    f"JOIN handshake: expected ack from {j}, got {(kind, who)}"
                )
    return received


class RankRejoin:
    """Executes the rebalance on the expanded communicator.

    Parameters
    ----------
    comm:
        The *expanded* communicator (survivors + joiners).
    storage:
        This member's :class:`StorageArea` (a joiner brings a fresh one
        sized by the handshake state).
    ledger:
        The replicated :class:`ReplicaLedger` (re-pointed in place).
    old_size:
        Live size before the expand; used to shrink survivors' degraded
        capacity ``(1+Q)·N/(M-k)`` back toward ``(1+Q)·N/M``.
    """

    def __init__(
        self,
        comm,
        storage: StorageArea,
        ledger: ReplicaLedger,
        *,
        old_size: int | None = None,
    ) -> None:
        self.comm = comm
        self.storage = storage
        self.ledger = ledger
        self.old_size = old_size if old_size is not None else comm.size

    def rebalance(self, joiners: Sequence[int]) -> RejoinReport:
        """Run the full rebalance (collective over the expanded comm)."""
        comm = self.comm
        t0 = time.perf_counter()
        joiners = tuple(sorted(int(j) for j in joiners))
        # One picture of the world on every member (the same allgather
        # discipline recovery uses).
        hot_orders = comm.allgather(list(self.storage.hot_gids()))
        cold_gids = comm.allgather(list(self.storage.cold_gids()))
        hot_by_rank = {comm.group[i]: h for i, h in enumerate(hot_orders)}
        cold_by_rank = {comm.group[i]: c for i, c in enumerate(cold_gids)}
        plan = plan_rebalance(self.ledger, comm.group, hot_by_rank, cold_by_rank)
        index = comm.group.index
        moves = [
            (gid, index(src), index(dst), PROMOTE if promote else TRANSFER)
            for gid, src, dst, promote in plan
        ]
        nbytes = migrate(
            comm, self.storage, self.ledger, moves,
            tags=JOIN, first_tag=_TRANSFER_TAG_BASE,
        )
        self._shrink_capacity()
        promoted = sum(promote for *_, promote in plan)
        wall = time.perf_counter() - t0
        return RejoinReport(
            joiners=joiners,
            moved_gids=len(plan),
            promoted=promoted,
            transfers=len(plan) - promoted,
            bytes_transferred=nbytes,
            capacity_bytes=self.storage.capacity_bytes,
            plan=tuple(plan),
            wall_s=wall,
        )

    # ------------------------------------------------------------------ steps
    def _shrink_capacity(self) -> None:
        """Return survivors' capacity bound toward (1+Q)·N/M."""
        cap = self.storage.capacity_bytes
        if cap is None or self.old_size >= self.comm.size:
            return
        self.storage.resize(scaled_capacity(cap, self.old_size, self.comm.size))
