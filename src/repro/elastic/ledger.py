"""Replica ledger: which rank holds which sample, at all times.

The PLS exchange (Algorithm 1) moves samples between workers every epoch,
so "who holds sample *g*" is a moving target.  The :class:`ReplicaLedger`
pins it down: seeded from the initial partition and updated after every
exchange round with a small allgather of ``(gid, dest)`` movement deltas,
every rank carries an identical gid -> holder map.  After a failure, any
survivor can therefore compute exactly which samples died with a rank and
which survivor each of the rest lives on; the lost ones are re-read from
the source dataset.

Because every input to an exchange — the destination permutation, the
per-rank selection stream, the exchanged count — derives deterministically
from ``(seed, epoch)``, the ledger is also *reconstructible offline*:
:func:`reconstruct_ledger` replays the scheduler's decisions without any
communication and must agree with the live ledger (property-tested).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.shuffle.exchange_plan import ExchangePlan, exchange_count
from repro.utils.rng import SeedTree

__all__ = ["ReplicaLedger", "reconstruct_ledger"]


class ReplicaLedger:
    """Replicated map of global sample id -> holding world rank.

    All mutating entry points are collective (they allgather the per-rank
    deltas), so after any of them every rank's ledger is bit-identical.
    Ranks are recorded as *world* ranks: they stay meaningful across
    ``shrink()``, when communicator-local ranks shift.
    """

    def __init__(self) -> None:
        #: gid -> world rank currently holding the sample *hot* (trainable).
        self.holder: dict[int, int] = {}
        #: Per-epoch movement record: ``(epoch, ((gid, src, dst), ...))``
        #: with world ranks; appended by :meth:`commit_epoch`.
        self.history: list[tuple[int, tuple[tuple[int, int, int], ...]]] = []

    # ------------------------------------------------------------- collective
    def seed_partition(self, comm, local_gids: Iterable[int]) -> None:
        """Record the initial partition (collective: every rank contributes
        the gids its shard received at ``setup()`` time)."""
        per_rank = comm.allgather([int(g) for g in local_gids])
        self.holder = {}
        self.history = []
        for local, gids in enumerate(per_rank):
            world = comm.group[local]
            for g in gids:
                self.holder[g] = world

    def commit_epoch(
        self, comm, epoch: int, moves: Sequence[tuple[int, int]]
    ) -> None:
        """Record one epoch's exchange (collective).

        ``moves`` is this rank's ``(gid, dest_local_rank)`` list — the
        samples it sent away.  The allgather replicates everyone's moves,
        so every rank applies the identical global delta.
        """
        per_rank = comm.allgather([(int(g), int(d)) for g, d in moves])
        applied: list[tuple[int, int, int]] = []
        for src_local, rank_moves in enumerate(per_rank):
            src_world = comm.group[src_local]
            for g, dest_local in rank_moves:
                dst_world = comm.group[dest_local]
                self.holder[g] = dst_world
                applied.append((g, src_world, dst_world))
        self.history.append((int(epoch), tuple(applied)))

    # ------------------------------------------------------------------ local
    def reassign(self, gid: int, world_rank: int) -> None:
        """Point ``gid`` at a new holder (used by shard recovery; every
        survivor applies the same deterministic assignment, so the ledger
        stays replicated without extra communication)."""
        self.holder[int(gid)] = int(world_rank)

    def held_by(self, world_rank: int) -> list[int]:
        """Gids currently held hot by ``world_rank`` (sorted)."""
        return sorted(g for g, h in self.holder.items() if h == world_rank)

    def lost_to(self, dead_ranks: Iterable[int]) -> list[int]:
        """Gids whose hot holder is among ``dead_ranks`` (sorted): the
        sample set a failure removed from the training population."""
        dead = set(dead_ranks)
        return sorted(g for g, h in self.holder.items() if h in dead)

    def missing_from(self, live_ranks: Iterable[int]) -> list[int]:
        """Gids not held by any rank in ``live_ranks`` — empty iff every
        sample survives (the zero-loss invariant)."""
        live = set(live_ranks)
        return sorted(g for g, h in self.holder.items() if h not in live)

    def __len__(self) -> int:
        return len(self.holder)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicaLedger):
            return NotImplemented
        return self.holder == other.holder

    __hash__ = None  # mutable


def reconstruct_ledger(
    seed: int,
    shard_gids: Sequence[Sequence[int]],
    epochs: int,
    q: float,
) -> ReplicaLedger:
    """Rebuild the ledger offline by replaying the scheduler's decisions.

    ``shard_gids[r]`` is rank *r*'s initial shard in storage-insertion
    order (the order ``LocalShuffle.setup`` added them).  The replay
    mirrors :class:`~repro.shuffle.scheduler.Scheduler` exactly: same
    exchanged count ``k`` (global minimum), same per-rank selection
    permutation, same seed-synchronised destination plan, and the same
    storage reordering (received samples append after the survivors of
    the old order).
    """
    size = len(shard_gids)
    holdings: list[list[int]] = [list(map(int, gids)) for gids in shard_gids]
    tree = SeedTree(seed)
    ledger = ReplicaLedger()
    for rank, gids in enumerate(holdings):
        for g in gids:
            ledger.holder[g] = rank

    for epoch in range(epochs):
        k = min(exchange_count(len(h), q) for h in holdings)
        plan = ExchangePlan.for_epoch(seed=seed, epoch=epoch, size=size, rounds=k)
        selected: list[list[int]] = []
        for rank in range(size):
            rng = tree.per_rank("select", rank, epoch)
            perm = rng.permutation(len(holdings[rank]))
            selected.append([holdings[rank][int(i)] for i in perm[:k]])
        applied: list[tuple[int, int, int]] = []
        # Movement record mirrors the scheduler: sample i of the selection
        # rides in plan round i to that round's destination.
        for rank in range(size):
            dests = plan.sends_for(rank)
            for i, g in enumerate(selected[rank]):
                dst = int(dests[i])
                ledger.holder[g] = dst
                applied.append((g, rank, dst))
        # Storage reordering mirrors clean_local_storage: received samples
        # append in round order, sent samples vacate their old positions.
        received = [
            [selected[int(src)][i] for i, src in enumerate(plan.sources[:, rank])]
            for rank in range(size)
        ]
        for rank in range(size):
            sent = set(selected[rank])
            holdings[rank] = [
                g for g in holdings[rank] if g not in sent
            ] + received[rank]
        ledger.history.append((epoch, tuple(applied)))
    return ledger
