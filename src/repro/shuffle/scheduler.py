"""The PLS scheduler: per-epoch sample exchange with optional overlap.

Mirrors the paper's user-facing object (Figure 3)::

    scheduler = Scheduler(storage, comm, fraction=Q, batch_size=b, seed=s)

    def train(epoch):
        scheduler.scheduling(epoch)          # pick samples + destinations
        # ... training loop; optionally scheduler.communicate_chunk() per
        #     iteration to overlap the exchange with FW+BW (Figure 4) ...
        send_req, recv_req = scheduler.communicate()   # non-blocking
        scheduler.synchronize(send_req, recv_req)      # wait for exchange
        scheduler.clean_local_storage()      # evict sent, install received

The exchange follows :class:`~repro.shuffle.exchange_plan.ExchangePlan`
(Algorithm 1): per plan round every rank sends one message's worth of
samples and receives one, seed-synchronised destinations, hence balanced
traffic.  The *plan* is per sample; the *wire* is per **frame**: the
``Q*b`` rounds one training iteration posts ("in each iteration, Q*b
samples are sent/received", §III-C) form a **window**, whose rounds are
grouped by peer into one frame each way — one pack, one checksum, one
isend / matched irecv, one ACK.  A round whose destination is this rank
itself is no frame: its sample is **kept** where it is (no pack, checksum,
message, ACK or second slot row) and, at the install, re-registered in
place at its plan-round position like any arrival.  Three layers, one
protocol:

* the **planner**, :func:`~repro.shuffle.exchange_plan.plan_frames`, a pure
  function of the plan;
* the **engine**, :class:`~repro.shuffle.engine.ExchangeEngine`: CRC/ACK/NACK
  with bounded resends, the deadline's degraded-Q commit and rollback, and
  abort, as events in and actions out — the class the protocol model checker
  (:mod:`repro.analysis.protocol`) explores;
* :class:`Scheduler`, the **shell**: the communicator, the storage area, the
  frame buffers (a :class:`~repro.mpi.pool.FrameCache`), the clock, the NACK
  backoff and the flight records.  It feeds the engine what happened and
  carries out what the engine answers.

A frame travels as one :class:`~repro.mpi.codec.PackedBatch` in a CRC32
:class:`~repro.mpi.message.Checksummed` envelope tagged ``(epoch, window,
attempt)``.  :meth:`Scheduler._sweep` services the exchange: it verifies
every owed frame that has arrived, copies the verified ones into slots the
storage area owns and only then ACKs them, and takes the ACKs and NACKs
addressed to this rank.  ``communicate_chunk()`` sweeps under compute after
every :data:`SERVICE_EVERY`-th window, ``synchronize()`` until done.  An ACK
proves the receiver is finished with the bytes, so the sender takes its
frame back, packs a later window into it, and returns what it holds at
commit (``pool.in_use() == 0`` between epochs).  A frame is NACKed after a
CRC failure or after a backoff interval of silence since the last sign of
life, so a slow but progressing peer is never NACKed.  An optional
``deadline_s`` commits the longest prefix of complete windows all ranks
have, and later epochs repay the Q-deficit — see ``docs/performance.md``.

Fail-stop faults remain :mod:`repro.elastic`'s business: the completion loop
polls ``comm.dead_peers()`` and re-raises a genuine death as
:class:`~repro.mpi.errors.PeerFailure`, so a transient fault is never
misdiagnosed as a rank death and vice versa.
"""

from __future__ import annotations

import time
import zlib
from typing import Sequence

import numpy as np

from repro.mpi.codec import PackedBatch, SampleBlock, pack_samples, unpack_samples
from repro.mpi.communicator import Communicator
from repro.mpi.errors import PeerFailure, UnrecoveredFaultError
from repro.mpi.message import Checksummed
from repro.mpi.pool import FrameCache
from repro.mpi.request import Request
from repro.mpi.tags import EXCHANGE_CTRL, EXCHANGE_DATA, PARITY_BIT
from repro.utils.retry import Backoff
from repro.utils.rng import SeedTree

from .engine import ExchangeEngine, Frame
from .exchange_plan import ExchangePlan, exchange_count, plan_frames
from .storage import StorageArea

__all__ = [
    "Scheduler",
    "EXCHANGE_CTRL_TAG",
    "SERVICE_EVERY",
]

# Tag space reserved for sample-exchange frames: one tag per window within an
# epoch (the channel's source tells the frames of a window apart), plus an
# epoch-parity bit.  Ranks can be at most one epoch apart
# (synchronize() blocks until all sources posted), so parity plus per-channel
# FIFO matching keeps epochs unambiguous.  Allocated centrally in
# repro.mpi.tags.
_EPOCH_PARITY_BIT = PARITY_BIT
# Control plane of the exchange: ACK/NACK messages, one tag per
# epoch parity.  Kept outside the data-round tag range so a control message
# can never be matched by a data irecv.
EXCHANGE_CTRL_TAG = EXCHANGE_CTRL.base

#: Servicing cadence: ``communicate_chunk()`` sweeps after every
#: ``SERVICE_EVERY``-th window it posts (a sweep is one mailbox operation,
#: under ``procs`` a drain of the rank's rings).  Stated as what it buys: in lockstep
#: training — a collective every iteration — a peer's sweep ACKs a window at
#: most ``SERVICE_EVERY`` iterations after its post and the sender's own
#: sweep takes the ACK at most ``SERVICE_EVERY`` later, so a rank has send
#: frames of at most ``2 * SERVICE_EVERY + 1`` windows out however long the
#: epoch: that many times ``Q*b`` samples in flight beside the paper's
#: ``(1+Q)*N/M``, not ``Q*N/M``.  Its frame buffers are at most those
#: frames (a :class:`~repro.mpi.pool.FrameCache` never holds an idle buffer
#: while it takes a new one from the pool).
SERVICE_EVERY = 2

#: Per-frame bound on both resends and NACKs before the exchange gives up
#: with :class:`~repro.mpi.errors.UnrecoveredFaultError`.
MAX_ATTEMPTS = 16

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_SAMPLES = SampleBlock([], _NO_IDS, _NO_IDS)


class _IO:
    """What the shell holds for one frame; the engine sees none of it."""

    __slots__ = ("positions", "nbytes", "payload", "staged", "req", "nack_t", "nack_wait")

    def __init__(self, positions: np.ndarray):
        self.positions = positions  # the planner's sample positions
        self.nbytes = 0             # send: logical sample bytes (payload_nbytes model)
        self.payload = None         # send: until ACKed; recv: verified, not staged
        self.staged = None          # recv: the rows staged in storage slots
        self.req = None             # recv: outstanding irecv
        self.nack_t = 0.0           # recv: when we last NACKed this frame
        self.nack_wait = 0.0        # recv: silence tolerated before the next NACK


class Scheduler:
    """Manages the global exchange of one worker's storage area.

    Parameters
    ----------
    storage:
        This worker's :class:`StorageArea` (already holding its shard).
    comm:
        Communicator over all workers.
    fraction:
        The paper's exchange fraction Q in [0, 1].
    batch_size:
        Per-worker batch size b; used for the per-iteration chunk size Q*b.
    seed:
        Shared seed from which all ranks derive identical destination
        permutations (and their own local selection stream).
    ledger:
        Optional :class:`~repro.elastic.ReplicaLedger`.  When given, every
        ``clean_local_storage()`` commits the epoch's sample movements to it
        (a small allgather of ``(gid, dest)`` deltas), keeping a replicated
        record of which rank holds which sample — the map shard recovery
        consults after a failure.
    resend_timeout_s:
        Base interval of silence after which an unverified frame is NACKed
        again (exponential backoff, deterministic jitter), at most
        :data:`MAX_ATTEMPTS` times.
    deadline_s:
        Optional per-epoch exchange deadline (seconds, measured from
        ``scheduling()``); on expiry the remaining windows are abandoned and
        the epoch commits at a lower effective Q.  ``None`` waits forever.
    """

    def __init__(
        self,
        storage: StorageArea,
        comm: Communicator,
        *,
        fraction: float,
        batch_size: int = 32,
        seed: int = 0,
        ledger=None,
        resend_timeout_s: float = 0.25,
        deadline_s: float | None = None,
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction Q must be in [0,1], got {fraction}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.storage = storage
        self.comm = comm
        self.fraction = fraction
        self.batch_size = batch_size
        self.seed = seed
        self.ledger = ledger
        self.resend_timeout_s = resend_timeout_s
        self.deadline_s = deadline_s
        self._nack_backoff = Backoff(
            resend_timeout_s, factor=2.0, cap_s=max(resend_timeout_s * 8, 0.05)
        )
        self._tree = SeedTree(seed)

        self.epoch: int | None = None
        self.plan: ExchangePlan | None = None
        #: This epoch's protocol state (a fresh engine per epoch).
        self.engine: ExchangeEngine | None = None
        self._selected_ids: list[int] = []
        # Per selected sample, in plan-round order, once posted: its gid
        # (-1 = untracked) and the peer its frame went to.
        self._sent_gids = self._sent_dest = _NO_IDS
        self._window = 0      # rounds per window, frozen at the first post
        self._windows: list = []  # the planner's frames, per window
        self._io: dict[Frame, _IO] = {}
        self._send_reqs: list[Request] = []
        self._recv_reqs: list[Request] = []
        # What the commit staged into storage slots, the plan positions of
        # those rows, and those of the committed rounds this rank kept.
        self._received = _NO_SAMPLES
        self._received_at = self._kept = _NO_IDS
        self._installed: list[_IO] = []
        # (gid, dest local rank) of the committed, gid-tracked sends.
        self._sent_moves: list[tuple[int, int]] = []
        self._cleaned = True
        # Send buffers this rank got back on ACK, held for a later window.
        self._frames = FrameCache(comm.pool)
        self._ctrl_tag = EXCHANGE_CTRL_TAG
        self._epoch_t0 = 0.0        # monotonic clock at scheduling()
        self._n_local = 0           # shard size at scheduling()
        self._planned_extra = 0     # deficit repayment baked into this plan
        # This rank's recorder: every protocol step (plan, post, verify,
        # ACK, NACK, resend, commit, rollback) is one event, so a fault dump
        # reconstructs the last K frames even with tracing off; ``round.post``
        # carries its ``mode`` so the Figure 4 overlap attribution can tell
        # posting modes apart.
        self.flight = comm.flight

        # Statistics for the performance/accounting benchmarks.  Byte counts
        # use the wire-size model (payload_nbytes: sample array + label), so
        # they agree with the events' nbytes fields and the world's counters.
        # Sent totals are counted at *commit* (what the exchange actually
        # achieved); retransmissions go to resent_bytes.
        # Sample totals count every committed plan round, kept ones too;
        # sent bytes are only what left the rank.
        self.total_sent_samples = 0
        self.total_recv_samples = 0
        self.total_kept_samples = 0
        self.total_sent_bytes = 0
        self.resent_bytes = 0
        #: Most windows this rank had send frames out of at once (oldest
        #: un-ACKed to newest posted); see :data:`SERVICE_EVERY`.
        self.max_windows_in_flight = 0

        # Fault-recovery accounting.
        self.resends = 0            # payload retransmissions performed
        self.crc_rejects = 0        # received payloads that failed their CRC
        self.timeout_nacks = 0      # NACKs sent because a frame timed out
        self.stale_discards = 0     # leftover messages of a previous epoch
        self.degraded_epochs = 0    # epochs committed below their plan
        self.q_deficit = 0          # samples owed to the configured Q
        self.effective_q: list[float] = []  # realised Q per epoch

    # ------------------------------------------------------------- scheduling
    def scheduling(self, epoch: int) -> None:
        """Line 1-3 of Algorithm 1: pick the global partition and the
        destination permutations for this epoch.

        The agreed exchange size also repays any Q-deficit left by earlier
        degraded epochs: each rank offers
        ``base + q_deficit`` (capped at its shard size), and the global
        minimum of the offers is adopted — still a uniform collective, still
        balanced, and never *below* what a deficit-free run would pick."""
        if not self._cleaned:
            raise RuntimeError(
                "previous epoch's exchange not finished: call synchronize() "
                "and clean_local_storage() first"
            )
        self.epoch = int(epoch)
        self._epoch_t0 = time.monotonic()
        # Chaos-injection hook (duck-typed: plain Worlds have no ``chaos``).
        # Telling the engine which epoch this rank entered lets epoch-scoped
        # fault clauses activate without the mpi layer importing faults.
        chaos = getattr(self.comm.world, "chaos", None)
        if chaos is not None:
            chaos.note_epoch(self.comm.group[self.comm.rank], self.epoch)
        n_local = len(self.storage)
        self._n_local = n_local
        with self.flight.span(
            "exchange.plan", epoch=self.epoch, q=self.fraction,
            deficit=self.q_deficit,
        ) as sp:
            # Shard sizes may differ by one across ranks (N mod M != 0), but the
            # balanced exchange requires every rank to play the same number of
            # rounds — otherwise a rank waits for a send its peer never posts.
            # Agree on the global minimum (collective call: scheduling() must be
            # invoked on every rank, which is already its contract).
            base = exchange_count(n_local, self.fraction)
            want = min(n_local, base + self.q_deficit)
            agreed = self.comm.allreduce(
                np.array([want, base], dtype=np.int64), op=np.minimum
            )
            k = int(agreed[0])
            # How much of this plan is repayment rather than baseline:
            # settled against q_deficit at commit time.
            self._planned_extra = k - int(agreed[1])
            self._selected_ids = self._select_samples(k, epoch)
            # A plan round moves one sample, so balance holds per round AND
            # per sample.
            self.plan = ExchangePlan.for_epoch(
                seed=self.seed, epoch=epoch, size=self.comm.size, rounds=k
            )
            self._sent_gids = np.full(k, -1, dtype=np.int64)
            self._sent_dest = np.full(k, -1, dtype=np.int64)
            sp.set(
                rounds=k,
                samples=k,
                # CRC of the destination matrix: two ranks whose fingerprints
                # differ diverged on the shared-seed plan — the first thing a
                # post-mortem checks.
                rng_fingerprint=zlib.crc32(self.plan.destinations.tobytes()),
            )
        self.engine = ExchangeEngine(self.epoch, max_attempts=MAX_ATTEMPTS)
        self._window = 0
        self._windows = []
        self._io = {}
        self._send_reqs = []
        self._recv_reqs = []
        self._received = _NO_SAMPLES
        self._received_at = self._kept = _NO_IDS
        self._sent_moves = []
        self._ctrl_tag = EXCHANGE_CTRL.tag(parity=(self.epoch % 2) * _EPOCH_PARITY_BIT)
        self._cleaned = False

    def _select_samples(self, k: int, epoch: int) -> list[int]:
        """Pick the k local samples forming this epoch's global partition:
        Algorithm 1's uniform draw, off this rank's own stream."""
        ids = self.storage.ids()
        perm = self._tree.per_rank("select", self.comm.rank, epoch).permutation(len(ids))
        return [ids[i] for i in perm[:k].tolist()]

    @property
    def chunk_rounds(self) -> int:
        """Plan rounds per window — what one training iteration posts under
        overlap: Q*b samples' worth (>= 1)."""
        return max(1, int(round(self.fraction * self.batch_size)))

    def _require_scheduled(self) -> None:
        if self.plan is None or self.epoch is None:
            raise RuntimeError("call scheduling(epoch) first")

    # ------------------------------------------------------------ communicate
    def communicate(self) -> tuple[list[Request], list[Request]]:
        """Post every remaining window (lines 2-6 of Algorithm 1).

        Non-blocking: returns (send_requests, recv_requests) to pass to
        :meth:`synchronize`.  Can be called after zero or more
        :meth:`communicate_chunk` calls; it completes the posting.
        """
        self._require_scheduled()
        self._post_windows(None, mode="blocking")
        return self._send_reqs, self._recv_reqs

    def communicate_chunk(self) -> int:
        """Post the next window — Q*b rounds, one training iteration's share
        of the exchange (the Figure 4 overlap step) — and, after every
        :data:`SERVICE_EVERY`-th, service what has arrived (:meth:`_sweep`).
        Returns rounds posted."""
        self._require_scheduled()
        window = self.engine.windows
        self._post_windows(1, mode="overlap")
        if self.engine.windows == window:
            return 0
        if self.engine.windows % SERVICE_EVERY == 0:
            self._sweep()
        return min((window + 1) * self._window, self.plan.rounds) - window * self._window

    def _post_windows(self, count: int | None, *, mode: str) -> None:
        """Post the next ``count`` windows (``None``: all that are left).

        The window grid is fixed for the epoch (``chunk_rounds`` at the
        first post), so every rank cuts the plan into the same frames no
        matter how many ``communicate_chunk`` calls it made."""
        if not self._window:
            self._window = self.chunk_rounds
            self._windows = plan_frames(self.plan, self._window, self.comm.rank)
        engine = self.engine
        stop = len(self._windows)
        if count is not None:
            stop = min(stop, engine.windows + count)
        while engine.windows < stop:
            window = engine.windows
            sends, owed, _kept = self._windows[window]
            tag = self._tag(window)
            acts = engine.post(
                [(s.peer, len(s.positions)) for s in sends],
                [(o.peer, len(o.positions)) for o in owed],
            )
            for spec in sends:
                self._io[engine.sends[window, spec.peer]] = _IO(spec.positions)
            self._perform(acts, mode)
            for spec in owed:
                io = self._io[engine.owed[window, spec.peer]] = _IO(spec.positions)
                # The shared seed tells us the source; a matched irecv is
                # deterministic while remaining wire-identical to ANY_SOURCE.
                io.req = self.comm.irecv(source=spec.peer, tag=tag)
                self._recv_reqs.append(io.req)
            if engine.unacked:
                oldest = next(iter(engine.unacked))[0]
                self.max_windows_in_flight = max(
                    self.max_windows_in_flight, window - oldest + 1
                )

    # --------------------------------------------------------------- actions
    def _perform(self, acts: list, mode: str = "") -> None:
        """Carry out the engine's actions, in order."""
        for verb, fr, *detail in acts:
            io = self._io.get(fr)
            if verb == "send":
                self._post_frame(fr, io, mode)
            elif verb == "stage":
                block = unpack_samples(io.payload)
                io.staged = self.storage.stage(block)
                self.comm.count_copy(io.payload.payload.nbytes)
                del block  # the last view of the frame's payload
                io.payload = None
            elif verb == "ack":
                self._control(verb, fr)
            elif verb == "nack":
                self.timeout_nacks += detail[0]
                self._record("round.nack", fr, timed_out=detail[0], nacks=fr.attempts)
                self._control(verb, fr)
                io.nack_t = time.monotonic()
                io.nack_wait = self._nack_delay(fr)
            elif verb == "take_back":
                self._frames.put(io.payload.buf)
                io.payload = None
                self._record("round.ack", fr)
            elif verb == "resend":
                self.resends += 1
                self.resent_bytes += io.nbytes
                self._record("round.resend", fr, attempt=fr.attempts)
                self._isend(fr, io)
            elif verb == "reject":
                self.crc_rejects += 1
                self._record("round.crc_reject", fr)
            elif verb == "discard":
                self.stale_discards += 1
                if fr is not None:
                    self._record("round.stale", fr, got=detail[0])
            elif verb == "release":
                # The reference stays: were the engine to ask for this frame
                # back later (a protocol bug), the pool's strict retire, not
                # a missing attribute, would report it.
                io.payload.release()
            elif verb == "release_held":
                self._frames.release_all()
            elif verb == "install":
                self._installed.append(io)
            elif verb == "unstage":
                if io.staged is not None:
                    self.storage.unstage(io.staged)
                    io.staged = None
            elif verb == "try_adopt":
                if io.payload is not None:
                    io.payload.try_adopt()
                    io.payload = None
            elif verb == "fail":
                self._unrecovered(detail[0], window=fr.window, peer=fr.peer)
            else:
                raise RuntimeError(f"unknown exchange action {verb!r}")

    def _post_frame(self, fr: Frame, io: _IO, mode: str) -> None:
        """Pack, seal and isend one frame — the selected samples at the
        planner's positions (plan-round order) into a buffer this rank holds
        (else a pool buffer); it stays out until the frame's ACK brings it
        back."""
        ids = self._selected_ids
        block = self.storage.take([ids[i] for i in io.positions.tolist()])
        self._sent_gids[io.positions] = block.gids
        self._sent_dest[io.positions] = fr.peer
        # Byte accounting stays in logical sample bytes (the shared
        # payload_nbytes wire-size model), not envelope bytes.
        io.nbytes = block.nbytes
        # One flat envelope per frame: a single gather copy into a pooled
        # buffer; after this neither the wire (pass-through) nor the CRC
        # (contiguous) touches the sample bytes until the install copy.
        io.payload = pack_samples(block, pool=self._frames)
        self.comm.count_copy(io.payload.payload.nbytes)
        # The timed post.  The wire op under it runs suspended: this event,
        # in logical sample bytes and plan order, is the frame's one record
        # (the racy protocol must not make traces unreproducible).
        with self.flight.span(
            "round.post", epoch=self.epoch, window=fr.window, peer=fr.peer,
            nbytes=io.nbytes, samples=len(block), mode=mode,
        ):
            self._isend(fr, io)

    def _record(self, kind: str, fr: Frame, **fields) -> None:
        self.flight.record(kind, epoch=self.epoch, window=fr.window, peer=fr.peer, **fields)

    def _tag(self, window: int) -> int:
        return EXCHANGE_DATA.tag(window, parity=(self.epoch % 2) * _EPOCH_PARITY_BIT)

    def _isend(self, fr: Frame, io: _IO) -> None:
        with self.flight.suspended():
            env = Checksummed.wrap(io.payload, meta=(self.epoch, fr.window, fr.attempts))
            self._send_reqs.append(
                self.comm.isend(env, dest=fr.peer, tag=self._tag(fr.window))
            )

    def _control(self, kind: str, fr: Frame) -> None:
        with self.flight.suspended():
            self.comm.send((kind, self.epoch, fr.window), dest=fr.peer, tag=self._ctrl_tag)

    # -------------------------------------------------------------- complete
    def synchronize(
        self,
        send_reqs: Sequence[Request] | None = None,
        recv_reqs: Sequence[Request] | None = None,
    ) -> None:
        """Line 7 of Algorithm 1: wait for all outstanding requests.

        Runs the progress engine to completion (the residue the sweeps under
        compute left, timeout NACKs, the deadline) and then the commit
        collective.  The request lists are accepted to mirror the paper's
        script-facing API and otherwise ignored (the per-frame state
        supersedes them)."""
        self._require_scheduled()
        posted = min(self.engine.windows * self._window, self.plan.rounds)
        if posted < self.plan.rounds:
            raise RuntimeError(
                f"only {posted}/{self.plan.rounds} rounds posted; "
                "call communicate() before synchronize()"
            )
        with self.flight.span("epoch.commit", epoch=self.epoch) as sp:
            committed = self._complete_rounds()
            self._apply_commit(committed, sp)

    def _unrecovered(self, message: str, **fields) -> None:
        """Give up on the exchange: record, dump the flight log, raise.

        The dump is keyed by (epoch, rank) so the one failing rank produces
        exactly one post-mortem artifact — containing every rank's recent
        ring — before :class:`UnrecoveredFaultError` propagates."""
        rank = self.comm.group[self.comm.rank]
        self.flight.record(
            "fault.unrecovered", epoch=self.epoch, detail=message, **fields
        )
        self.comm.world.flight.dump(
            message, key=("unrecovered", self.epoch, rank)
        )
        raise UnrecoveredFaultError(message)

    def _sweep(self) -> bool:
        """One non-blocking pass of the progress engine; returns whether
        anything advanced.

        One mailbox operation takes everything that has arrived: the frames
        still owed and the whole control backlog (ACKs bring this rank's
        frames back, NACKs are answered with a resend).  Every arrived frame
        is classified and CRC-verified (pass 1), and only then are the
        verified frames' actions — copy into storage slots, then ACK — carried
        out (pass 2).  The passes are not interleaved: ``zlib.crc32`` drops
        the GIL and the row copies hold it, and alternating them made the
        same checksums take 2.5x as long under ``threads``."""
        pending = list(self.engine.waiting.values())
        io = self._io
        msgs = self.comm.testsome([io[fr].req for fr in pending], self._ctrl_tag)
        progress = False
        for (kind, ep, window), source in msgs:
            acts = self.engine.on_ctrl(kind, ep, window, source)
            progress = progress or any(verb != "discard" for verb, *_ in acts)
            self._perform(acts)
        now = time.monotonic()
        verified = []
        for fr in pending:
            if io[fr].req.completed:
                progress = True
                verified += self._handle_data(fr, now)
        self._perform(verified)
        return progress

    def _handle_data(self, fr: Frame, now: float) -> list:
        """Classify one completed receive for owed frame ``fr``; a verified
        frame's actions are returned for the sweep's copy-out pass."""
        io = self._io[fr]
        req = io.req
        env = req.wait()
        if (
            not isinstance(env, Checksummed)
            or len(env.meta) != 3
            or not isinstance(env.payload, PackedBatch)
        ):
            self._unrecovered(
                f"exchange window {fr.window}: rank {fr.peer} sent a malformed "
                "envelope; expected a checksummed PackedBatch tagged "
                "(epoch, window, attempt)",
                window=fr.window, peer=fr.peer,
            )
        ep, window, _attempt = env.meta
        acts = self.engine.on_data(
            fr, ep, window, lambda: env.payload.count if env.ok() else None
        )
        if fr.state != "verified":
            self._perform(acts)
            if fr.state == "waiting":  # a stale or rejected copy: listen on
                io.req = self.comm.irecv(source=fr.peer, tag=self._tag(fr.window))
            return []
        io.payload = env.payload
        io.req = None
        # queued_s: how long the delivery sat in the mailbox before a sweep
        # took it (service time minus post time).
        self._record(
            "round.verified", fr, nbytes=env.payload.nbytes, samples=fr.samples,
            queued_s=now - req.status.posted_s,
        )
        return acts

    def _complete_rounds(self) -> int:
        """Sweep until nothing is owed or un-ACKed, then agree what to commit.

        Returns the globally agreed number of committed *windows*: the
        minimum over ranks of each rank's longest prefix of windows whose
        every owed frame verified.  Without a deadline the loop runs until
        every send is ACKed and every receive verified (so the commit is
        total); with one, expiry stops the waiting and the commit shrinks
        accordingly.

        A frame is NACKed only after a backoff interval of *silence*: any
        delivery or ACK re-arms every pending frame's timer, so a peer that
        is merely still posting (or draining a long queue) is never asked
        to resend what it has not lost.

        Termination: epochs are in lockstep (the training loop allreduces
        every iteration), so every rank is inside this loop for the same
        epoch.  A rank leaves only once all its sends are ACKed, hence a
        NACK always finds its sender still serving resends; leftover control
        or duplicate data messages are discarded by the epoch check when the
        same-parity tag comes around again."""
        engine, io = self.engine, self._io
        deadline = (
            None if self.deadline_s is None else self._epoch_t0 + self.deadline_s
        )
        for fr in engine.waiting.values():
            io[fr].nack_wait = self._nack_delay(fr)
        quiet_since = time.monotonic()
        while engine.waiting or engine.unacked:
            self._raise_on_dead_peers()
            if self._sweep():
                quiet_since = time.monotonic()
                continue
            # Timers and the deadline only on idle passes: content already
            # delivered is always drained and verified, even late.
            now = time.monotonic()
            for fr in list(engine.waiting.values()):
                if now >= max(quiet_since, io[fr].nack_t) + io[fr].nack_wait:
                    self._perform(engine.on_timeout(fr))
            if deadline is not None and now >= deadline:
                break
            time.sleep(0.001)
        # Uniform collective: every rank reaches it exactly once per epoch
        # (either with a full prefix or at its deadline).
        return int(self.comm.allreduce(engine.prefix(), op=min))

    def _nack_delay(self, fr: Frame) -> float:
        return self._nack_backoff.delay(
            fr.attempts, key=(self.epoch, fr.window, fr.peer)
        )

    def _raise_on_dead_peers(self) -> None:
        """A genuinely dead counterparty is fail-stop, not transient: hand
        it to the elastic layer as a PeerFailure instead of NACKing a corpse
        until the attempt budget runs out."""
        dead = self.comm.dead_peers()
        if dead:
            for _verb, peer in self.engine.on_peer_dead(dead):
                raise PeerFailure(self.comm.group[peer], dead[peer] or None, op="exchange")

    def _apply_commit(self, committed: int, sp) -> None:
        """Make the agreed prefix of windows this epoch's exchange.

        Windows beyond ``committed`` are rolled back symmetrically: the
        receiver unstages their rows (if they verified) and the sender
        keeps their samples (they drop out of ``_selected_ids``), so no
        sample is lost or duplicated and every shard keeps its size.  A
        kept round beyond it simply stays as it is."""
        engine = self.engine
        rounds = self.plan.rounds
        committed_rounds = min(committed * self._window, rounds)
        for fr in engine.waiting.values():
            req = self._io[fr].req
            if not req.completed:
                req.cancel()
            self._io[fr].req = None
        # The commit allreduce is a barrier, so every ACK a receiver posted
        # before committing is already in our mailbox: the engine settles
        # the sends on what this drain finds.
        late = self.comm.testsome((), self._ctrl_tag)
        self._installed = []
        self._perform(engine.commit(committed, late))
        # The rows were staged — the second (and last) copy of a sample's
        # bytes, charged like the pack gather — as each frame verified.
        if self._installed:
            self._received = SampleBlock.concat([io.staged for io in self._installed])
            self._received_at = np.concatenate([io.positions for io in self._installed])
            for io in self._installed:
                io.staged = None
        planned_samples = len(self._selected_ids)
        self._selected_ids = self._selected_ids[:committed_rounds]
        kept = self._kept = np.concatenate(
            [kept for _sends, _owed, kept in self._windows[:committed]] or [_NO_IDS]
        )
        # No frame carried the kept rounds: their movement record is
        # (gid, this rank).
        ids = self._selected_ids
        self._sent_gids[kept] = self.storage.take([ids[i] for i in kept.tolist()]).gids
        self._sent_dest[kept] = self.comm.rank
        gids = self._sent_gids[:committed_rounds]
        tracked = gids >= 0
        self._sent_moves = list(
            zip(
                gids[tracked].tolist(),
                self._sent_dest[:committed_rounds][tracked].tolist(),
            )
        )
        self.total_sent_samples += committed_rounds
        self.total_kept_samples += len(kept)
        self.total_sent_bytes += sum(
            self._io[fr].nbytes for fr in engine.sends.values()
            if fr.state == "committed"
        )
        self.total_recv_samples += len(self._received) + len(kept)

        # Deficit bookkeeping: this plan contained ``_planned_extra`` samples
        # of repayment; whatever the commit fell short of the plan is newly
        # owed.  Both quantities are globally agreed, so q_deficit stays
        # identical on every rank (and provably >= 0: the agreed k never
        # exceeds min(base) + deficit).
        short = planned_samples - committed_rounds
        self.q_deficit = self.q_deficit - self._planned_extra + short
        self.effective_q.append(
            committed_rounds / self._n_local if self._n_local else 0.0
        )
        if committed_rounds < rounds:
            self.degraded_epochs += 1
            self.flight.record(
                "epoch.rollback",
                epoch=self.epoch,
                committed=committed_rounds,
                rolled_back=rounds - committed_rounds,
            )
        sp.set(
            committed=committed_rounds,
            planned=rounds,
            windows=committed,
            samples=committed_rounds,
            kept=len(kept),
            # Logical bytes installed off the wire — the receive side of
            # ``round.post``'s nbytes, taken at the commit rather than at
            # each (racy) arrival.
            recv_nbytes=self._received.nbytes,
            q_deficit=self.q_deficit,
            pool_in_use=self.comm.pool.in_use(),
        )

    def fault_stats(self) -> dict:
        """Fault-recovery counters for reporting layers."""
        return {
            "resends": self.resends,
            "resent_bytes": self.resent_bytes,
            "crc_rejects": self.crc_rejects,
            "timeout_nacks": self.timeout_nacks,
            "stale_discards": self.stale_discards,
            "degraded_epochs": self.degraded_epochs,
            "q_deficit": self.q_deficit,
            "effective_q": list(self.effective_q),
        }

    # ------------------------------------------------------------- state carry
    #: Fields that belong to the *run* rather than to one communicator
    #: incarnation: traffic totals and the fault-recovery counters
    #: including the Q-deficit.  The same set that
    #: ``PartialLocalShuffle.attach_comm`` carries across a shrink/expand,
    #: and the set a full-job snapshot must persist across a crash/restart.
    STATE_FIELDS = (
        "total_sent_samples",
        "total_recv_samples",
        "total_kept_samples",
        "total_sent_bytes",
        "resent_bytes",
        "resends",
        "crc_rejects",
        "timeout_nacks",
        "stale_discards",
        "degraded_epochs",
        "q_deficit",
        "effective_q",
    )

    def state_dict(self) -> dict:
        """Run-owned exchange state as a picklable dict.

        Only valid between epochs (no exchange in flight) — exactly when
        snapshots are taken.  The list field is shallow-copied so a
        snapshot is not mutated by subsequent epochs.
        """
        out = {}
        for name in self.STATE_FIELDS:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, list) else value
        return out

    def load_state_dict(self, state: dict) -> None:
        """Restore run-owned exchange state saved by :meth:`state_dict`."""
        for name in self.STATE_FIELDS:
            if name not in state:
                raise KeyError(f"scheduler state missing field {name!r}")
            value = state[name]
            setattr(self, name, list(value) if isinstance(value, list) else value)

    # ----------------------------------------------------------------- commit
    def clean_local_storage(self) -> None:
        """Install received samples, then retire the transmitted ones.

        Ordering note: installing before evicting transiently holds
        ``(1+Q) * N/M`` samples — exactly the paper's stated peak storage
        requirement (§III-A), which :class:`StorageArea` records via
        ``peak_nbytes``/``peak_count``.

        Transmitted samples are removed, so their slots are free for the
        next epoch's arrivals and each sample is held by one rank only.  A
        kept sample is turned back into a staged row of its own slot and
        installed among the arrivals at its plan-round position, under a
        fresh id: storage order, the next epoch's selection and the ledger
        see it exactly as if it had gone round the wire, and no byte of it
        is copied.
        """
        self._require_scheduled()
        if len(self._received) + len(self._kept) != len(self._selected_ids):
            raise RuntimeError("call synchronize() before clean_local_storage()")
        if self.ledger is not None:
            # Replicate this epoch's movement record on every rank (small
            # allgather of (gid, dest) pairs) so any survivor can locate
            # every sample's holder after a failure.  Committed *before*
            # any storage mutation: if a peer died, the allgather raises
            # PeerFailure on every survivor with both ledger and storage
            # untouched, so abort_exchange() leaves a consistent state.
            self.ledger.commit_epoch(self.comm, self.epoch, self._sent_moves)
        # One install in plan-round order (the planner's positions), frames
        # and kept rounds merged, so storage sees the same sequence whatever
        # the framing.
        kept = self.storage.restage([self._selected_ids[i] for i in self._kept.tolist()])
        order = np.argsort(np.concatenate([self._received_at, self._kept]))
        self.storage.add_many(SampleBlock.concat([self._received, kept])[order])
        stays = set(self._kept.tolist())
        for i, sid in enumerate(self._selected_ids):
            if i not in stays:
                self.storage.remove(sid)
        self._received = _NO_SAMPLES
        self._received_at = self._kept = _NO_IDS
        self._selected_ids = []
        self._sent_moves = []
        self._io = {}
        self._cleaned = True

    def abort_exchange(self) -> None:
        """Abandon a partially posted exchange after a peer failure.

        Cancels every outstanding request — including irecvs re-posted by
        the completion loop after a NACK — and resets the per-epoch state so
        :meth:`scheduling` can be called again (typically on a shrunk
        communicator via a rebuilt scheduler).  Nothing was installed or
        retired, so the hot set is exactly what it was at ``scheduling()``
        time and the rows the sweeps staged are freed — also those a commit
        had already merged when its ledger allgather met a dead peer: the
        senders still hold those samples."""
        if self.engine is not None:
            self._perform(self.engine.abort())
        reqs = [io.req for io in self._io.values() if io.req is not None]
        for req in reqs + self._send_reqs + self._recv_reqs:
            if not req.completed:
                req.cancel()
        self._send_reqs = []
        self._recv_reqs = []
        self.storage.unstage(self._received)
        self._received = _NO_SAMPLES
        self._received_at = self._kept = _NO_IDS
        self._selected_ids = []
        self._sent_moves = []
        self._io = {}
        self._windows = []
        self._planned_extra = 0
        self.engine = None
        self.plan = None
        self.epoch = None
        self._cleaned = True
