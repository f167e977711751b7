"""The chaos engine: seed-deterministic fault injection.

Every injection decision is a pure function of ``(seed, fault kind,
identity, attempt)`` via :func:`repro.utils.rng.hash_unit` — *not* a drawn
RNG stream.  Thread interleaving therefore cannot change which messages are
corrupted or which reads fail: two runs with the same seed inject the exact
same fault sequence, which is what lets the acceptance tests demand
bit-identical results under chaos.

:class:`ChaosWorld` is the delivery seam: a :class:`~repro.mpi.world.World`
whose ``_deliver`` routes each posted message through the engine, which may
corrupt (a *copy* — never the sender's resend buffer), drop, delay,
duplicate, or slow it down.  Collectives ride the rendezvous path and are
modeled reliable; chaos targets the point-to-point exchange plane the paper
builds on.
"""

from __future__ import annotations

import threading
import time

from repro.mpi.codec import PackedBatch
from repro.mpi.message import Checksummed, Message
from repro.mpi.world import World
from repro.utils.rng import hash_unit

from .profile import FaultProfile

__all__ = ["ChaosEngine", "ChaosWorld"]


def _corrupt_frame(batch: PackedBatch, u: float) -> PackedBatch:
    """A damaged copy of ``batch``: one byte of a private copy of the
    payload flipped (one header byte when the payload is empty).  The
    sender's pooled resend buffer is never touched, and the copy is
    plain-bytearray-backed, so the receiver can NACK and drop it without
    any pool bookkeeping."""
    if batch.payload.nbytes:
        raw = bytearray(batch.payload)
        raw[int(u * len(raw)) % len(raw)] ^= 0xFF
        return PackedBatch(
            header=batch.header, payload=memoryview(raw).toreadonly(), buf=raw
        )
    head = bytearray(batch.header)
    head[int(u * len(head)) % len(head)] ^= 0xFF
    return PackedBatch(header=bytes(head), payload=batch.payload, buf=batch.buf)


class ChaosEngine:
    """Decides, deterministically, which operations a profile damages.

    Parameters
    ----------
    profile:
        A :class:`FaultProfile` or its spec string.  Only the transient
        clauses matter here; ``kill`` clauses are the runner's business.
    seed:
        Root of every injection decision.  Same seed, same faults.
    slow_unit_s:
        Wall-clock cost of one ``x`` unit of the ``slow`` clause, charged
        per message the slow rank posts.
    """

    def __init__(
        self,
        profile: FaultProfile | str,
        *,
        seed: int = 0,
        slow_unit_s: float = 0.002,
    ) -> None:
        if isinstance(profile, str):
            profile = FaultProfile.parse(profile)
        self.profile = profile.transient()
        self.seed = int(seed)
        self.slow_unit_s = slow_unit_s
        self._drop = self.profile.by_kind("drop")
        self._corrupt = self.profile.by_kind("corrupt")
        self._dup = self.profile.by_kind("dup")
        self._delay = self.profile.by_kind("delay")
        self._slow = self.profile.by_kind("slow")
        self._read = self.profile.by_kind("flaky-read", "torn-read")
        self._lock = threading.Lock()
        #: Injected-fault counts by kind (what the CLI/benchmarks report).
        self.counts: dict[str, int] = {}
        # Exchange epoch per world rank (ranks can be one epoch apart), fed
        # by Scheduler.scheduling() so epoch-scoped clauses know when it is.
        self._epoch: dict[int, int] = {}
        # Attempt counter per (source, dest, tag) channel for messages that
        # carry no Checksummed (epoch, round, attempt) identity of their own.
        self._chan_seq: dict[tuple[int, int, int], int] = {}

    # --------------------------------------------------------------- plumbing
    def note_epoch(self, world_rank: int, epoch: int) -> None:
        """Record that ``world_rank`` entered exchange epoch ``epoch``."""
        self._epoch[int(world_rank)] = int(epoch)

    def handback(self, world_rank: int) -> tuple:
        """What a copy of this engine that posted ``world_rank``'s messages
        (a ``procs`` rank process) hands back when it ends: the rank, its
        epoch and its control channels' attempt counters."""
        with self._lock:
            chans = {c: n for c, n in self._chan_seq.items() if c[0] == world_rank}
            return world_rank, self._epoch.get(world_rank), chans

    def resume(self, handback: tuple) -> None:
        """Take a :meth:`handback` in, so the next run (a restarted
        segment) draws on from where that copy stopped."""
        world_rank, epoch, chans = handback
        with self._lock:
            if epoch is not None:
                self._epoch[world_rank] = epoch
            self._chan_seq.update(chans)

    def _u(self, *key: object) -> float:
        return hash_unit(self.seed, *key)

    def _count(self, kind: str) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1

    def snapshot(self) -> dict[str, int]:
        """Copy of the injected-fault counters."""
        with self._lock:
            return dict(self.counts)

    @staticmethod
    def _in_scope(clause, is_data: bool) -> bool:
        if clause.scope == "all":
            return True
        return is_data if clause.scope == "exchange" else not is_data

    # --------------------------------------------------------------- messages
    def plan_message(self, msg: Message) -> list[tuple[float, Message]]:
        """Map one posted message to its actual deliveries.

        Returns ``(delay_s, message)`` pairs — empty when dropped.  The
        identity hashed for each decision is the message's *content*
        identity: a :class:`Checksummed` envelope contributes its
        ``(epoch, round, attempt)`` meta, so a resend (attempt+1) gets an
        independent draw and deterministically gets through for p < 1.
        """
        epoch = self._epoch.get(msg.source, 0)
        env = msg.payload
        is_data = isinstance(env, Checksummed)
        if is_data and len(env.meta) >= 3:
            ident = ("data", msg.source, msg.dest, msg.tag, env.meta)
        else:
            chan = (msg.source, msg.dest, msg.tag)
            with self._lock:
                seq = self._chan_seq.get(chan, 0)
                self._chan_seq[chan] = seq + 1
            ident = ("ctrl", msg.source, msg.dest, msg.tag, seq)

        # Straggler model: the slow rank pays wall-clock per message posted.
        for c in self._slow:
            if c.rank == msg.source and c.active(epoch):
                self._count("slow")
                time.sleep(self.slow_unit_s * float(c.x))

        for c in self._drop:
            if is_data and c.active(epoch) and self._u("drop", ident) < c.p:
                self._count("drop")
                return []

        out = msg
        for c in self._corrupt:
            if is_data and c.active(epoch) and self._u("corrupt", ident) < c.p:
                self._count("corrupt")
                damaged = _corrupt_frame(env.payload, self._u("corrupt-at", ident))
                out = Message(
                    source=msg.source,
                    dest=msg.dest,
                    tag=msg.tag,
                    payload=Checksummed(meta=env.meta, payload=damaged, crc=env.crc),
                    seq=msg.seq,
                )
                break

        deliveries = [(0.0, out)]
        for c in self._dup:
            if self._in_scope(c, is_data) and c.active(epoch) and self._u("dup", ident) < c.p:
                self._count("dup")
                # Fresh seq: the duplicate arrives strictly after the original.
                deliveries.append(
                    (0.0, Message(source=msg.source, dest=msg.dest, tag=msg.tag, payload=out.payload))
                )
                break
        for c in self._delay:
            if self._in_scope(c, is_data) and c.active(epoch) and self._u("delay", ident) < c.p:
                self._count("delay")
                deliveries[0] = (float(c.ms) / 1000.0, out)
                break
        return deliveries

    # ---------------------------------------------------------------- storage
    def storage_hook(self, op: str, key: str, attempt: int) -> None:
        """Raise an injected I/O fault for read ``(key, attempt)``, or not.

        Keyed on the read identity plus the attempt number: attempt 0 of a
        given path either always faults (for this seed) or never does, and
        each retry gets an independent draw — so a retried read
        deterministically succeeds within the retry budget for p < 1,
        regardless of which thread performs it.
        """
        for c in self._read:
            if self._u(c.kind, op, key, attempt) < c.p:
                self._count(c.kind)
                if c.kind == "flaky-read":
                    raise OSError(f"injected flaky read: {key} (attempt {attempt})")
                raise ValueError(f"injected torn read: {key} (attempt {attempt})")


class ChaosWorld(World):
    """A :class:`World` whose message deliveries run through a chaos engine.

    Accounting is unchanged — the sender is charged once for what it posted;
    what (if anything) reaches the mailbox is the engine's call.  Injected
    duplicates are free: the application did not send them.
    """

    def __init__(self, size: int, *, chaos: ChaosEngine, **kwargs) -> None:
        super().__init__(size, **kwargs)
        self.chaos = chaos

    def _deliver(self, msg: Message) -> None:
        for delay_s, m in self.chaos.plan_message(msg):
            if delay_s <= 0:
                super()._deliver(m)
            else:
                timer = threading.Timer(delay_s, self._deliver_late, args=(m,))
                timer.daemon = True
                timer.start()

    def _deliver_late(self, msg: Message) -> None:
        if not self.aborted:
            super()._deliver(msg)
