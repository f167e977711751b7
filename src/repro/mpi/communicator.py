"""The rank-facing communicator object.

Each SPMD rank receives its own :class:`Communicator` bound to the shared
:class:`~repro.mpi.world.World`.  The API mirrors mpi4py's lowercase
(generic-object) interface — ``send``/``recv``/``isend``/``irecv`` plus the
collectives the training stack needs (barrier, bcast, allreduce, alltoall,
gather, allgather, scatter, reduce) — because that is the surface the
paper's Algorithm 1 and PyTorch-side scheduler consume.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Sequence

import numpy as np

from .message import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    Status,
    payload_nbytes,
    received,
)
from .request import RecvRequest, Request, SendRequest
from .world import World

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG"]

_context_counter = itertools.count(1)


def _nothing(_acc: Any, _value: Any) -> None:
    """The fold of a barrier (module level, so it pickles by name)."""


def _regroup_context(gen: int) -> int:
    # The 1<<20 offset keeps shrink/expand contexts out of the split/dup id
    # space, so a regrouped communicator can never alias a sibling's tags;
    # survivors and joiners compute it independently from the agreed
    # generation, so the JOIN handshake needs no context negotiation.
    return (1 << 20) + gen * 131 + 97


class Communicator:
    """One rank's endpoint in a simulated MPI world.

    Point-to-point matching is scoped by a *context id* so that messages on
    a ``split()`` or ``dup()`` communicator can never match receives posted
    on the parent — the same isolation real MPI communicators give.

    Zero-copy contract: payloads and collective contributions are shared by
    reference.  A rank must not mutate a buffer it sent or contributed until
    the matching receive/collective has completed *on every peer* — exactly
    the aliasing rule real MPI imposes on its buffers.  Contribute a
    ``.copy()`` when in doubt (cheap relative to the op it protects).  The
    receiving side is enforced: a top-level ndarray received by p2p or
    from a peer in a collective is read-only on both backends, so write
    into a ``.copy()`` of it.
    """

    def __init__(
        self,
        world: World,
        rank: int,
        *,
        context_id: int = 0,
        group: Sequence[int] | None = None,
    ) -> None:
        if not 0 <= rank < world.size:
            raise ValueError(f"rank {rank} out of range for world of size {world.size}")
        self.world = world
        self._world_rank = rank
        self.context_id = context_id
        #: This rank's recorder (:class:`~repro.obs.FlightRecorder`) — the
        #: one thing instrumented code writes to.  Keyed by *world* rank, so
        #: the same ring follows the rank through ``split``/``dup``/
        #: ``shrink``: a dump shows one continuous history per physical rank
        #: regardless of how many communicators it lived in.
        self.flight = world.flight.for_rank(rank)
        # ``group`` maps communicator-local rank -> world rank.
        self.group: tuple[int, ...] = tuple(group) if group is not None else tuple(
            range(world.size)
        )
        if rank not in self.group:
            raise ValueError(f"world rank {rank} not in communicator group {self.group}")
        self._local_rank = self.group.index(rank)
        self._coll_gen = itertools.count()
        # Per-communicator shrink/expand sequence: participants advance it
        # in lockstep (both calls are collective), so the consensus keys agree.
        self._regroup_seq = itertools.count()
        # Non-blocking requests issued through this communicator, for
        # pending_requests() introspection; pruned of completed entries as
        # it grows so long runs don't accumulate handles.
        self._issued_requests: list[Request] = []

    # ----------------------------------------------------------------- identity
    @property
    def rank(self) -> int:
        """Rank within this communicator."""
        return self._local_rank

    @property
    def size(self) -> int:
        """Total number of elements."""
        return len(self.group)

    @property
    def pool(self):
        """The world's shared :class:`~repro.mpi.pool.BufferPool` — where
        the exchange packs its envelopes and returns them after commit."""
        return self.world.pool

    def count_copy(self, nbytes: int) -> None:
        """Charge a payload copy of ``nbytes`` to this rank.

        Feeds the world's deterministic ``bytes_copied`` counters
        (``world.total_bytes_copied()``) — the numbers the fast-path
        benchmark gates on.  Called by the scheduler for its pack
        gathers.
        """
        self.world.count_copy(self._world_rank, nbytes)

    def _to_world(self, local: int) -> int:
        if local == ANY_SOURCE:
            return ANY_SOURCE
        if not 0 <= local < self.size:
            raise ValueError(f"peer rank {local} out of range [0,{self.size})")
        return self.group[local]

    def _from_world(self, world_rank: int) -> int:
        return self.group.index(world_rank)

    #: Exclusive upper bound on user tags; the context id occupies the bits
    #: above it, so larger tags would alias across communicators.
    MAX_TAG = 1 << 24

    def _wire_tag(self, tag: int) -> int:
        # Tags are non-negative in MPI; fold the context id into the wire tag
        # so cross-communicator matches are impossible.
        if tag == ANY_TAG:
            return ANY_TAG
        if tag < 0:
            raise ValueError(f"tag must be non-negative (or ANY_TAG), got {tag}")
        if tag >= self.MAX_TAG:
            raise ValueError(f"tag must be < {self.MAX_TAG}, got {tag}")
        return self.context_id * self.MAX_TAG + tag

    # ---------------------------------------------------- request introspection
    def _track_request(self, req: Request) -> Request:
        if len(self._issued_requests) >= 64:
            self._issued_requests = [
                r for r in self._issued_requests if not r.completed
            ]
        self._issued_requests.append(req)
        return req

    def pending_requests(self) -> list[Request]:
        """Non-blocking requests issued here and not yet completed.

        A request counts as completed once ``wait()`` returned or a
        ``test()`` observed it done.  ``run_spmd`` consults
        this as each rank returns: leftover pending requests mean a
        message is stranded in a mailbox where a later wildcard receive
        can steal it (warned about).  Communicators created by
        ``split``/``dup`` track their own requests.
        """
        return [r for r in self._issued_requests if not r.completed]

    def forget_pending(self) -> int:
        """Abandon this communicator's record of in-flight requests.

        Used when a simulated node crash interrupts the rank mid-exchange
        and the rank later *rejoins* instead of exiting: the abandoned
        traffic can never complete (its peers shrank away), and a rejoined
        rank returning normally should not trip the stranded-request check
        over messages its former incarnation posted.  Returns how many
        pending requests were dropped.
        """
        dropped = len([r for r in self._issued_requests if not r.completed])
        self._issued_requests = []
        return dropped

    # ------------------------------------------------------------ point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send."""
        self.isend(obj, dest, tag).wait()

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; completes immediately (buffered semantics)."""
        fl = self.flight
        if fl.detail:
            with fl.span("p2p.isend", peer=dest, tag=tag, nbytes=payload_nbytes(obj)):
                req = self._post_send(obj, dest, tag)
            return self._track_request(req)
        return self._track_request(self._post_send(obj, dest, tag))

    def _post_send(self, obj: Any, dest: int, tag: int) -> Request:
        world_dest = self._to_world(dest)
        self.world.post(
            Message(source=self._world_rank, dest=world_dest, tag=self._wire_tag(tag), payload=obj)
        )
        return SendRequest(dest=dest, tag=tag)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        """Blocking receive; returns the payload."""
        fl = self.flight
        if fl.detail:
            with fl.span("p2p.recv", peer=source, tag=tag) as sp:
                msg = self._take_msg(source, tag)
                sp.set(
                    src=self._from_world(msg.source),
                    nbytes=payload_nbytes(msg.payload),
                )
        else:
            msg = self._take_msg(source, tag)
        if status is not None:
            status.source = self._from_world(msg.source)
            status.tag = msg.tag - self.context_id * (1 << 24)
            status.count = 1
        return received(msg.payload)

    def _take_msg(self, source: int, tag: int) -> Message:
        return self.world.take_blocking(
            self._world_rank, self._to_world(source), self._wire_tag(tag)
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Non-blocking receive; complete it with ``.wait()`` / ``.test()``."""
        req = RecvRequest(
            self.world,
            self._world_rank,
            self._to_world(source),
            self._wire_tag(tag),
        )
        self._track_request(req)
        return req

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking probe."""
        msg = self.world.mailboxes[self._world_rank].peek(
            self._to_world(source), self._wire_tag(tag)
        )
        return msg is not None

    def testsome(
        self, requests: Sequence[RecvRequest], drain_tag: int | None = None
    ) -> list[tuple[Any, int]]:
        """Complete whichever of this rank's pending ``requests`` have a
        message waiting (MPI_Testsome: read ``.completed`` afterwards) and,
        with ``drain_tag``, also receive everything queued under that tag
        from any source — returned as ``(payload, source)`` pairs in send
        order.  One mailbox operation however many requests: one lock
        acquisition (under ``procs`` after one drain of the rank's rings)."""
        wants = [(req.source, req.tag, False) for req in requests]
        if drain_tag is not None:
            wants.append((ANY_SOURCE, self._wire_tag(drain_tag), True))
        taken = self.world.mailboxes[self._world_rank].try_take_many(wants)
        for req, got in zip(requests, taken):
            if got:
                req._complete(got[0])
        if drain_tag is None:
            return []
        return [(received(msg.payload), self._from_world(msg.source)) for msg in taken[-1]]

    # --------------------------------------------------------------- collectives
    def _rendezvous(self, op: str, contribution: Any, fold: Callable | None = None) -> Any:
        gen = next(self._coll_gen)
        key = (self.context_id, op, gen, self.size)
        fl = self.flight
        if fl.detail:
            # The span covers the whole rendezvous wait, so its duration is
            # this rank's synchronisation (straggler) time for the call.
            nb = 0 if contribution is None else payload_nbytes(contribution)
            with fl.span(f"coll.{op}", gen=gen, nbytes=nb):
                return self.world.rendezvous(
                    key, self._local_rank, contribution, self.group, fold
                )
        return self.world.rendezvous(
            key, self._local_rank, contribution, self.group, fold
        )

    def barrier(self) -> None:
        """Block until every rank in the communicator has entered: a fold
        of nothing (under ``procs``, on the launch communicator, one the
        ranks run among themselves)."""
        self._rendezvous("barrier", None, _nothing)

    def _from(self, src: int, item: Any) -> Any:
        """``item`` as this rank holds it when local rank ``src`` sent it:
        a peer's top-level ndarray read-only (:func:`received`), its own
        as it was."""
        return item if src == self._local_rank else received(item)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns root's value."""
        slots = self._rendezvous("bcast", obj if self._local_rank == root else None)
        return self._from(root, slots[root])

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to ``root`` (rank order); None elsewhere."""
        slots = self._rendezvous("gather", obj)
        if self._local_rank != root:
            return None
        return [self._from(r, slots[r]) for r in range(self.size)]

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one value per rank to every rank (rank order)."""
        slots = self._rendezvous("allgather", obj)
        return [self._from(r, slots[r]) for r in range(self.size)]

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``objs[i]`` from ``root`` to rank ``i``."""
        if self._local_rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(
                    f"root must provide exactly {self.size} items, got "
                    f"{None if objs is None else len(objs)}"
                )
        slots = self._rendezvous("scatter", list(objs) if self._local_rank == root else None)
        return self._from(root, slots[root][self._local_rank])

    def _take_reduced(self, total: Any) -> Any:
        """This rank's hold on the one result the world folded for everyone:
        the shared object — read-only if an array, so an in-place edit raises
        instead of racing the peers."""
        if isinstance(total, np.ndarray):
            total.flags.writeable = False
        return total

    def reduce(
        self,
        obj: Any,
        op: Callable[[Any, Any], Any] | None = None,
        root: int = 0,
    ) -> Any:
        """Reduce one value per rank to ``root`` with ``op`` (default: sum)."""
        total = self._rendezvous("reduce", obj, op or operator.add)
        return self._take_reduced(total) if self._local_rank == root else None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce one value per rank and distribute the result to every rank.

        This is the gradient-averaging primitive of synchronous SGD
        (Equation 1 of the paper): every rank contributes its local gradient
        and receives the sum — folded once, in rank order, by the world; a
        contribution is the rank's own again as soon as the call returns.
        """
        return self._take_reduced(self._rendezvous("allreduce", obj, op or operator.add))

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all: rank ``r`` sends ``objs[d]`` to rank ``d``
        and receives a list indexed by source rank.  This is the communication
        pattern the paper identifies as congestion-sensitive at scale (§V-F).
        """
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs {self.size} items, got {len(objs)}")
        slots = self._rendezvous("alltoall", list(objs))
        return [self._from(src, slots[src][self._local_rank]) for src in range(self.size)]

    # -------------------------------------------------------------- sub-groups
    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition the communicator by ``color``; rank order within each new
        communicator follows ``key`` (default: current rank)."""
        key = self._local_rank if key is None else key
        slots = self._rendezvous("split", (color, key, self._world_rank))
        members = [
            (k, wr)
            for (c, k, wr) in (slots[r] for r in range(self.size))
            if c == color
        ]
        members.sort()
        group = [wr for (_k, wr) in members]
        # Every member must agree on the new context id: derive it from a
        # bcast-style rendezvous rather than a per-rank counter.
        ctx_slots = self._rendezvous("split-ctx", next(_context_counter))
        new_ctx = max(ctx_slots.values())
        # type(self) so subclasses keep their behaviour on derived
        # communicators.
        return type(self)(
            self.world,
            self._world_rank,
            context_id=new_ctx * 131 + color,
            group=group,
        )

    def dead_peers(self) -> dict[int, str]:
        """Dead members of this communicator: local rank -> epitaph."""
        dead = self.world.dead_ranks()
        return {
            i: self.world.epitaphs.get(wr, "")
            for i, wr in enumerate(self.group)
            if wr in dead
        }

    def shrink(self) -> "Communicator":
        """Rebuild a consistent communicator over the surviving ranks.

        The ULFM-style recovery collective: every *live* member of this
        communicator must call it (typically from a
        :class:`~repro.mpi.errors.PeerFailure` handler).  Unlike
        :meth:`split`, it cannot use the normal rendezvous — the dead ranks
        would never arrive — so it runs a dynamic-membership consensus in
        the world that converges even if further ranks die mid-shrink.
        Survivors keep their relative order; the returned communicator has a
        fresh matching context, so messages of the old (broken) communicator
        can never be mis-matched by the new one.  A shrink is the regroup
        :meth:`expand` runs, with no joiners.
        """
        return self._regroup(())

    def expand(self, joiners: Sequence[int]) -> "Communicator":
        """Re-admit ``joiners`` (world ranks) into this communicator.

        Every current member calls it with the same joiner set, each joiner
        calls :meth:`rejoin`, and both sides converge on one new
        communicator whose group is the sorted union.  The call *is* the
        JOIN barrier — it returns only once every member has arrived and
        every joiner has knocked.
        """
        joiners = tuple(sorted(set(joiners)))
        if not joiners:
            raise ValueError("expand() needs at least one joiner")
        overlap = set(joiners) & set(self.group)
        if overlap:
            raise ValueError(f"joiners {sorted(overlap)} are already members")
        return self._regroup(joiners)

    def rejoin(self) -> "Communicator | None":
        """Joiner-side half of :meth:`expand`: knock, park, and come back.

        Called by a previously-dead rank on any communicator it still holds
        (the group of that stale communicator is irrelevant — only its
        world binding is used).  Blocks until the survivors run
        :meth:`expand` listing this rank, then returns a communicator
        identical to theirs.  Returns ``None`` when the job crashes
        cooperatively before admission.
        """
        self.world.request_join(self._world_rank)
        admission = self.world.await_admission(self._world_rank)
        return None if admission is None else self._member_of(*admission)

    def _regroup(self, joiners: tuple[int, ...]) -> "Communicator":
        key = ("regroup", self.context_id, next(self._regroup_seq))
        group, gen = self.world.regroup_rendezvous(
            key, self._world_rank, self.group, joiners
        )
        if self._world_rank not in group:
            op = "expand()" if joiners else "shrink()"
            raise RuntimeError(
                f"world rank {self._world_rank} called {op} but is marked dead"
            )
        return self._member_of(group, gen)

    def _member_of(self, group: tuple[int, ...], gen: int) -> "Communicator":
        # type(self) so subclasses keep their behaviour after a regroup.
        return type(self)(
            self.world,
            self._world_rank,
            context_id=_regroup_context(gen),
            group=group,
        )
