"""The shared state behind a simulated MPI world.

A :class:`World` owns one mailbox per rank plus the rendezvous slots used by
collectives.  All synchronisation is condition-variable based; every blocking
wait polls the world's ``aborted`` flag so that a crash on one rank unblocks
(and fails) every other rank instead of deadlocking the process.
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.telemetry.aggregate import TelemetryAggregator
from repro.obs.telemetry.flight import FlightLog

from .errors import MPIAbort, MPITimeout, PeerFailure
from .message import Message, payload_nbytes
from .pool import BufferPool

__all__ = ["World"]

# How often a blocked wait re-checks the abort flag / deadline (seconds).
_POLL_INTERVAL = 0.05


def _fold(values: list[Any], op: Callable[[Any, Any], Any]) -> Any:
    """Left fold of ``values`` (rank order) under ``op``; an ndarray result
    is fresh memory, never one of the contributions."""
    acc = values[0]
    if isinstance(acc, np.ndarray):
        acc = acc.copy()
        if op is operator.add:
            for v in values[1:]:
                acc += v
            return acc
    for v in values[1:]:
        acc = op(acc, v)
    return acc


class _Mailbox:
    """Per-rank inbox of undelivered messages, ordered by send sequence.

    Every non-blocking read first runs ``check_alive`` (the owning world's),
    so a poll observes an abort or the deadline in the same operation as
    the read itself (under ``procs``: the words on the shared board).
    """

    def __init__(self, check_alive: Callable[[], None] = lambda: None) -> None:
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.messages: list[Message] = []
        self._check_alive = check_alive

    def deposit(self, msg: Message) -> None:
        """Append a message to this mailbox and wake waiters."""
        with self.cond:
            self.messages.append(msg)
            self.cond.notify_all()

    def _take_locked(self, source: int, tag: int) -> Message | None:
        best_idx = -1
        for idx, msg in enumerate(self.messages):
            if msg.matches(source, tag) and (
                best_idx < 0 or msg.seq < self.messages[best_idx].seq
            ):
                best_idx = idx
        if best_idx < 0:
            return None
        return self.messages.pop(best_idx)

    def try_take(self, source: int, tag: int) -> Message | None:
        """Remove and return the earliest matching message, if any."""
        self._check_alive()
        with self.lock:
            return self._take_locked(source, tag)

    def try_take_many(
        self, wants: Sequence[tuple[int, int, bool]]
    ) -> list[list[Message]]:
        """One list per ``(source, tag, every)`` want: what :meth:`try_take`
        would have returned for it, asked want by want in order — the
        earliest match, or with ``every`` all of them in send order — in one
        operation (one lock acquisition)."""
        self._check_alive()
        taken: list[list[Message]] = []
        with self.lock:
            for source, tag, every in wants:
                got: list[Message] = []
                while (msg := self._take_locked(source, tag)) is not None:
                    got.append(msg)
                    if not every:
                        break
                taken.append(got)
        return taken

    def peek(self, source: int, tag: int) -> Message | None:
        """Earliest matching message without removing it (None if none)."""
        self._check_alive()
        with self.lock:
            candidates = [m for m in self.messages if m.matches(source, tag)]
            if not candidates:
                return None
            return min(candidates, key=lambda m: m.seq)


class World:
    """All shared state for a set of simulated ranks.

    A payload travels by reference: a message or collective contribution is
    the receiver's object, and the sender must not mutate it until every
    peer is done with it (the buffer rule of MPI, which
    :class:`~repro.mpi.communicator.Communicator` states).

    Parameters
    ----------
    size:
        Number of ranks.
    deadline_s:
        Optional wall-clock budget; blocking calls raise :class:`MPITimeout`
        once it is exceeded.  Guards tests against accidental deadlock.
    """

    def __init__(
        self,
        size: int,
        *,
        deadline_s: float | None = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.mailboxes = [_Mailbox(self.check_alive) for _ in range(size)]
        self.aborted = False
        self.abort_reason: str | None = None
        self._deadline = None if deadline_s is None else time.monotonic() + deadline_s

        # Collective rendezvous: keyed by (context_id, op_name, generation).
        self._coll_lock = threading.Lock()
        self._coll_cond = threading.Condition(self._coll_lock)
        self._coll_slots: dict[tuple, dict[int, Any]] = {}
        self._coll_done: dict[tuple, Any] = {}
        self._coll_readers: dict[tuple, int] = {}

        # Traffic accounting (bytes sent per rank) for the benchmarks that
        # report communication volume.
        self._traffic_lock = threading.Lock()
        self.bytes_sent = [0] * size
        self.messages_sent = [0] * size
        # Copy accounting: bytes materialised into fresh memory on the
        # message path (pack gathers).  The fast-path benchmark's "bytes
        # copied" metric — deterministic, unlike wall time.
        self.bytes_copied = [0] * size
        self.copies = [0] * size
        #: Shared exchange buffer pool: packed envelopes are gathered into
        #: pooled buffers and the pool's leak balance is asserted by tests.
        self.pool = BufferPool(name="world")
        #: After a ``procs`` run, per rank: pipe wire name -> round trips
        #: (``None``: the ranks were threads, no pipe).
        self.rpc_counts: list[dict[str, int]] | None = None
        #: Under ``procs``, what the rank processes share (``None``: the
        #: ranks are threads): an abort, a death or a flush is published
        #: there too, for ranks that read it without a round trip.
        self.board = None

        #: Always-on flight recorder: one bounded event ring per rank.  Any
        #: fault path (chaos kill, unrecovered exchange, shrink, abort) can
        #: dump every rank's recent history in one call — ranks are threads,
        #: so the survivors' rings are right here.
        self.flight = FlightLog(size)
        #: Cross-rank telemetry sink: rank 0 drains pushed metric snapshots
        #: into this aggregator.  World-owned so the series survive rank
        #: death and elastic shrinks.
        self.telemetry = TelemetryAggregator()

        # Failure detector state (the epitaph channel): ranks that died as a
        # *fault* rather than an error, plus the reason each one recorded.
        # Unlike ``aborted`` this is per-rank and non-fatal — survivors see a
        # dead peer as a PeerFailure on the specific operation that needs it,
        # not as a world-wide MPIAbort.
        self._dead: set[int] = set()
        self.epitaphs: dict[int, str] = {}
        # Dynamic-membership rendezvous (Communicator.shrink / expand):
        # keyed slots of arrived survivors plus an agreed generation number;
        # ranks knocking to re-enter, and the admission each one is handed
        # once a regroup lets it back in.
        self._regroup_slots: dict[tuple, set[int]] = {}
        self._regroup_result: dict[tuple, tuple[tuple[int, ...], int]] = {}
        self._regroup_readers: dict[tuple, int] = {}
        self._generation = itertools.count(1)
        self._join_requests: set[int] = set()
        self._join_admitted: dict[int, tuple[tuple[int, ...], int]] = {}
        # A full-job crash (``crash@epoch`` in a lifecycle plan) is softer
        # than ``abort``: workers unwind cooperatively, so waiters that have
        # no other wake signal (a joiner parked in ``await_admission``)
        # return instead of raising.
        self.crashed = False
        self.crash_reason: str | None = None

    # ------------------------------------------------------------------ abort
    def abort(self, reason: str) -> None:
        """Mark the world dead and wake every blocked waiter.  The first
        reason stays: a later abort is an echo of the first one's cause."""
        with self._coll_cond:
            if not self.aborted:
                self.abort_reason = reason
            self.aborted = True
            self._coll_cond.notify_all()
        self._wake()

    def _wake(self) -> None:
        """Wake every waiter blocked on a mailbox — here, and under
        ``procs`` in the rank processes, which read the published words."""
        if self.board is not None:
            self.board.publish(self.aborted, self._dead)
        for box in self.mailboxes:
            with box.cond:
                box.cond.notify_all()

    def check_alive(self) -> None:
        """Raise if the world was aborted or its deadline passed."""
        if self.aborted:
            raise MPIAbort(f"world aborted: {self.abort_reason}")
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.abort("deadline exceeded")
            raise MPITimeout("world deadline exceeded")

    # --------------------------------------------------------------- failures
    def mark_dead(self, rank: int, reason: str = "rank died", *, abort: bool = False) -> None:
        """Record a rank's death (non-fatally) and wake every blocked waiter.

        Waiters re-evaluate their wait condition: those that depend on the
        dead rank raise :class:`PeerFailure`, everyone else keeps waiting.
        This is the epitaph channel: the reason string is retained so
        survivors can report *why* the peer went away.

        With ``abort`` the death also aborts the world, under the lock that
        records the epitaph: a waiter that sees the abort sees the death,
        and the abort's reason is the death, never a woken survivor's echo.
        """
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0,{self.size})")
        with self._coll_cond:
            self._dead.add(rank)
            self.epitaphs.setdefault(rank, reason)
            if abort and not self.aborted:
                self.abort_reason = f"rank {rank} {reason}"
                self.aborted = True
            self._coll_cond.notify_all()
        self._wake()

    def dead_ranks(self) -> frozenset[int]:
        """World ranks that have died (snapshot)."""
        return frozenset(self._dead)

    # ------------------------------------------------------------- point2point
    def post(self, msg: Message) -> None:
        """Deliver a message to its destination mailbox (with accounting).

        Split into :meth:`_account` and :meth:`_deliver` so transports that
        sit between sender and mailbox (the chaos-injecting world in
        :mod:`repro.faults`) can charge the sender once while altering,
        dropping, delaying or duplicating what actually arrives.
        """
        self.check_alive()
        if not 0 <= msg.dest < self.size:
            raise ValueError(f"destination rank {msg.dest} out of range [0,{self.size})")
        self._account(msg)
        self._deliver(msg)

    def _account(self, msg: Message) -> None:
        """Charge the send to the source rank's traffic counters."""
        with self._traffic_lock:
            self.bytes_sent[msg.source] += payload_nbytes(msg.payload)
            self.messages_sent[msg.source] += 1

    def _deliver(self, msg: Message) -> None:
        """Deposit a message into its destination mailbox."""
        self.mailboxes[msg.dest].deposit(msg)

    def take_blocking(self, dest: int, source: int, tag: int) -> Message:
        """Block until a matching message is available for rank ``dest``.

        A receive matched to a *specific* dead source fails fast with
        :class:`PeerFailure` once no buffered message can satisfy it —
        buffered sends posted before the death are still delivered, exactly
        like a real network drains in-flight packets of a crashed peer.
        """
        box = self.mailboxes[dest]
        while True:
            self.check_alive()
            with box.cond:
                msg = box._take_locked(source, tag)
                if msg is not None:
                    return msg
                if source >= 0 and source in self._dead:
                    raise PeerFailure(
                        source, self.epitaphs.get(source), op="recv"
                    )
                # Timed wait so abort/deadline are observed even if no new
                # message ever arrives.
                box.cond.wait(timeout=_POLL_INTERVAL)

    # -------------------------------------------------------------- collectives
    def rendezvous(
        self,
        key: tuple,
        rank: int,
        contribution: Any,
        group: Sequence[int] | None = None,
        fold: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        """Deposit ``contribution`` under ``key`` and block until all ranks of
        the participant count embedded in the key have deposited.  Returns the
        full ``{rank: contribution}`` map — or, with ``fold`` (the same on
        every participant), the contributions reduced under it in rank order.
        The last participant to deposit folds, once, and everyone is handed
        that one object.  The slot is garbage-collected once every
        participant has read it.

        ``group`` (communicator-local rank -> world rank) enables failure
        detection: if a participant that has not yet deposited is dead, the
        rendezvous can never complete, so the waiters raise
        :class:`PeerFailure` instead of hanging until the deadline.
        """
        nparticipants = key[-1]
        with self._coll_cond:
            slots = self._coll_slots.setdefault(key, {})
            if rank in slots:
                raise RuntimeError(
                    f"rank {rank} deposited twice for collective {key}; "
                    "collectives must be called in the same order on every rank"
                )
            slots[rank] = contribution
            if len(slots) == nparticipants:
                self._coll_done[key] = slots if fold is None else _fold(
                    [slots[r] for r in range(nparticipants)], fold
                )
                self._coll_cond.notify_all()
            while key not in self._coll_done:
                if self.aborted:
                    raise MPIAbort(f"world aborted: {self.abort_reason}")
                if group is not None and self._dead:
                    for local, world_rank in enumerate(group):
                        if world_rank in self._dead and local not in slots:
                            raise PeerFailure(
                                world_rank,
                                self.epitaphs.get(world_rank),
                                op=str(key[1]) if len(key) > 1 else "collective",
                            )
                self._check_deadline_locked()
                self._coll_cond.wait(timeout=_POLL_INTERVAL)
            result = self._coll_done[key]
            readers = self._coll_readers.get(key, 0) + 1
            if readers == nparticipants:
                del self._coll_slots[key], self._coll_done[key]
                self._coll_readers.pop(key, None)
            else:
                self._coll_readers[key] = readers
            return result

    # ----------------------------------------------------------------- rejoin
    def announce_crash(self, reason: str) -> None:
        """Record a cooperative full-job crash and wake every waiter.

        Unlike :meth:`abort` this does not poison the world: live workers
        unwind by *returning* (they observe the crash flag at their next
        epoch boundary), and a joiner blocked in :meth:`await_admission`
        returns ``None`` instead of an admission.
        """
        with self._coll_cond:
            self.crashed = True
            if self.crash_reason is None:
                self.crash_reason = reason
            self._coll_cond.notify_all()
        self._wake()

    def request_join(self, rank: int) -> None:
        """Ring the doorbell: ``rank`` asks to be re-admitted to the job.

        The request is consumed by the next :meth:`regroup_rendezvous` that
        lists ``rank`` among its joiners; until then the caller should park
        in :meth:`await_admission`.
        """
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0,{self.size})")
        with self._coll_cond:
            self._join_requests.add(rank)
            self._coll_cond.notify_all()

    def await_admission(self, rank: int) -> tuple[tuple[int, ...], int] | None:
        """Block until an expand admits ``rank``; returns ``(group, gen)``.

        Returns ``None`` when the job crashes cooperatively before the
        admission arrives (the joiner unwinds with everyone else).  Raises
        :class:`MPIAbort`/:class:`MPITimeout` on a hard abort or deadline.
        """
        with self._coll_cond:
            while rank not in self._join_admitted:
                if self.aborted:
                    raise MPIAbort(f"world aborted: {self.abort_reason}")
                if self.crashed:
                    return None
                self._check_deadline_locked()
                self._coll_cond.wait(timeout=_POLL_INTERVAL)
            return self._join_admitted.pop(rank)

    def regroup_rendezvous(
        self, key: tuple, rank: int, group: Sequence[int], joiners: Sequence[int] = ()
    ) -> tuple[tuple[int, ...], int]:
        """Consensus on a communicator's next membership (ULFM-style
        ``MPI_Comm_shrink``, grown by ``joiners``): the live members of
        ``group`` plus every joiner.

        Every *live* member of ``group`` calls this with the same ``key`` and
        ``joiners``; the call returns once every current survivor has arrived
        **and** every joiner has knocked via :meth:`request_join`.  Because
        the dead set only grows, the wait converges even when further deaths
        happen mid-regroup: the survivor set is re-evaluated on every wake.
        The first arrival to observe completion freezes ``(new_group,
        generation)`` — without the freeze a rank dying *right after*
        completion could make late-exiting participants compute a smaller
        group than early ones (divergent contexts, deadlock) — revives the
        joiners (tombstones cleared, stale mailbox messages of their
        previous life flushed) and posts each one its admission for
        :meth:`await_admission`.  ``generation`` is world-unique, for
        deriving the new communicator's context.
        """
        joiners = tuple(sorted(set(joiners)))
        with self._coll_cond:
            slot = self._regroup_slots.setdefault(key, set())
            slot.add(rank)
            self._coll_cond.notify_all()
            while key not in self._regroup_result:
                if self.aborted:
                    raise MPIAbort(f"world aborted: {self.abort_reason}")
                self._check_deadline_locked()
                survivors = [r for r in group if r not in self._dead]
                if all(r in slot for r in survivors) and all(
                    j in self._join_requests for j in joiners
                ):
                    new_group = tuple(sorted(set(survivors) | set(joiners)))
                    gen = next(self._generation)
                    self._regroup_result[key] = (new_group, gen)
                    for j in joiners:
                        self._dead.discard(j)
                        self.epitaphs.pop(j, None)
                        self._join_requests.discard(j)
                        # Flush before any survivor returns and sends on the
                        # new context: nothing live can be queued yet.
                        self.flush_mailbox(j)
                        self._join_admitted[j] = (new_group, gen)
                    self._coll_cond.notify_all()
                    break
                self._coll_cond.wait(timeout=_POLL_INTERVAL)
            new_group, gen = self._regroup_result[key]
            readers = self._regroup_readers.get(key, 0) + 1
            if readers >= len(new_group) - len(joiners):
                self._regroup_slots.pop(key, None)
                self._regroup_result.pop(key, None)
                self._regroup_readers.pop(key, None)
            else:
                self._regroup_readers[key] = readers
            return new_group, gen

    def flush_mailbox(self, rank: int) -> int:
        """Drop every undelivered message queued for ``rank``.

        Called when a rank rejoins: messages addressed to its previous
        incarnation (pre-death sends still buffered) must not be matched by
        the revived rank's receives.  Returns the number dropped (under
        ``procs`` the rank drops what its rings held, when admitted).
        """
        if self.board is not None:
            self.board.cut(rank, self._dead)
        box = self.mailboxes[rank]
        with box.cond:
            dropped = len(box.messages)
            box.messages.clear()
        return dropped

    def _check_deadline_locked(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.aborted = True
            self.abort_reason = "deadline exceeded"
            self._coll_cond.notify_all()
            raise MPITimeout("world deadline exceeded")

    # ---------------------------------------------------------------- stats
    def count_copy(self, rank: int, nbytes: int) -> None:
        """Charge ``nbytes`` of payload copying to ``rank``'s counters."""
        with self._traffic_lock:
            self.bytes_copied[rank] += nbytes
            self.copies[rank] += 1

    def total_bytes_copied(self) -> int:
        """Sum of message-path copy bytes over all ranks."""
        with self._traffic_lock:
            return sum(self.bytes_copied)
