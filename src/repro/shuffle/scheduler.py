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
    scheduler.run_exchange(epoch)            # or: all four steps at once

The exchange follows :class:`~repro.shuffle.exchange_plan.ExchangePlan`
(Algorithm 1): per plan round every rank sends one message's worth of
samples and receives one, seed-synchronised destinations, hence balanced
traffic.  The *plan* is per sample; the *wire* is per **frame**: the
``Q*b`` rounds one training iteration posts ("in each iteration, Q*b
samples are sent/received", §III-C) form a **window**, and a window's
rounds are grouped by destination into one frame per peer — one pack, one
checksum, one isend / matched irecv, one ACK.  Both sides derive a frame's
contents from the shared plan, so an empty ``(window, peer)`` pair sends
nothing, self is a peer like any other, and at ``M >> Q*b`` a frame
degenerates to a single round's message.

The exchange is hardened against *transient* faults — corrupted or dropped
messages, stragglers — without changing the clean-run results:

* a frame's samples are coalesced into one
  :class:`~repro.mpi.codec.PackedBatch` (struct header + one contiguous
  pooled payload) and travel in a CRC32
  :class:`~repro.mpi.message.Checksummed` envelope tagged
  ``(epoch, window, attempt)``;
* the receiver verifies on receipt and answers with an ACK, or a NACK that
  makes the sender retransmit from its retained buffer (bounded attempts,
  exponential NACK backoff measured from the last sign of life, so a slow
  but progressing peer is never NACKed) — a send buffer is only reused
  once ACKed;
* an optional per-epoch ``deadline_s`` turns a straggling exchange into
  *graceful degradation*: the ranks agree (via an allreduce of their longest
  contiguous verified-window prefix) on how many whole windows to commit,
  train this epoch at the lower effective Q, and repay the recorded
  Q-deficit by enlarging the next epochs' exchange, so the long-run
  exchanged fraction converges to the configured Q.

A frame's buffer never leaves its sender.  The exchange has one servicing
routine, :meth:`Scheduler._sweep`: a non-blocking pass that CRC-verifies
every owed frame that has arrived, then copies each verified block into
slots the storage area owns (``StorageArea.stage``) and only then ACKs it,
and consumes the ACKs addressed to this rank.  ``communicate_chunk()`` runs
it under compute after every :data:`SERVICE_EVERY`-th window,
``synchronize()`` runs it to completion.  Stage-before-ACK means an ACK
proves the receiver is done with the bytes, so the sender takes its frame
back on ACK, packs a later window into it without visiting the pool, and
returns what it holds at commit (``pool.in_use() == 0`` between epochs).
The staged rows become entries, in plan-round order, at
``clean_local_storage()``; a verified window beyond the agreed prefix is
unstaged — see ``docs/performance.md``.

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

from .exchange_plan import ExchangePlan, exchange_count
from .storage import StorageArea

__all__ = [
    "Scheduler",
    "EXCHANGE_TAG_BASE",
    "EXCHANGE_CTRL_TAG",
    "ROUND_TRANSITIONS",
    "TERMINAL_ROUND_STATES",
    "SERVICE_EVERY",
    "WINDOWS_IN_FLIGHT_BOUND",
]

# Tag space reserved for sample-exchange frames: one tag per window within an
# epoch (the channel's source tells the frames of a window apart), plus an
# epoch-parity bit.  Ranks can be at most one epoch apart
# (synchronize() blocks until all sources posted), so parity plus per-channel
# FIFO matching keeps epochs unambiguous.  Allocated centrally in
# repro.mpi.tags; the module-level constants remain for compatibility.
EXCHANGE_TAG_BASE = EXCHANGE_DATA.base
_EPOCH_PARITY_BIT = PARITY_BIT
# Control plane of the exchange: ACK/NACK messages, one tag per
# epoch parity.  Kept outside the data-round tag range so a control message
# can never be matched by a data irecv.
EXCHANGE_CTRL_TAG = EXCHANGE_CTRL.base

#: Servicing cadence: ``communicate_chunk()`` sweeps after every
#: ``SERVICE_EVERY``-th window it posts (a sweep is one mailbox operation,
#: under ``procs`` one round trip).  Stated as what it buys: in lockstep
#: training — a collective every iteration — a peer's sweep ACKs a window at
#: most ``SERVICE_EVERY`` iterations after its post and the sender's own
#: sweep takes the ACK at most ``SERVICE_EVERY`` later, so a rank has send
#: frames of at most :data:`WINDOWS_IN_FLIGHT_BOUND` windows out however
#: long the epoch: ``WINDOWS_IN_FLIGHT_BOUND * Q*b`` samples in flight
#: beside the paper's ``(1+Q)*N/M``, not ``Q*N/M``.
SERVICE_EVERY = 2
WINDOWS_IN_FLIGHT_BOUND = 2 * SERVICE_EVERY + 1

#: The exchange protocol state machine, as an explicit transition table
#: keyed ``(side, state, event) -> new state``.  One protocol round is one
#: frame's trip: its sender runs the ``send`` side, its receiver the
#: ``recv`` side.  This is the load-bearing definition:
#: :meth:`_Frame.advance` refuses any transition not listed here, and the
#: protocol model checker (:mod:`repro.analysis.protocol`) imports this
#: table as its transition function, so the checked model and the live
#: protocol cannot drift apart silently.
#:
#: Send side (a frame we posted): ``inflight`` until the receiver's ACK
#: confirms a verified, copied-out delivery (``acked`` — the buffer is the
#: sender's to reuse), looping through bounded resends on NACKs; at commit
#: time an acked frame inside the agreed window prefix commits, an acked
#: frame beyond it rolls back, and an un-ACKed frame (possible only under a
#: deadline) is reclaimed — its buffer provably unobserved after
#: :meth:`Scheduler._drain_late_acks`.
#:
#: Recv side (a frame the plan says we are owed): ``waiting`` absorbs
#: stale/corrupt deliveries and timeout NACKs without leaving the state; a
#: CRC-verified payload moves to ``verified`` (staged, then ACKed, in the
#: same sweep); commit installs the staged rows, rollback unstages them,
#: an expired deadline abandons a still-waiting frame, and NACK-budget
#: exhaustion fails it.  ``abort`` (peer death) tears down either side
#: from any non-terminal state.
ROUND_TRANSITIONS: dict[tuple[str, str, str], str] = {
    # --- send side ---
    ("send", "inflight", "ack"): "acked",
    ("send", "inflight", "nack"): "inflight",        # resend, budget left
    ("send", "inflight", "nack_overflow"): "failed",
    ("send", "inflight", "reclaim"): "reclaimed",    # un-ACKed at commit
    ("send", "inflight", "abort"): "aborted",
    ("send", "acked", "commit"): "committed",
    ("send", "acked", "rollback"): "rolled_back",
    ("send", "acked", "abort"): "aborted",
    # --- recv side ---
    ("recv", "waiting", "data_ok"): "verified",
    ("recv", "waiting", "data_stale"): "waiting",
    ("recv", "waiting", "data_corrupt"): "waiting",
    ("recv", "waiting", "timeout"): "waiting",
    ("recv", "waiting", "nack_overflow"): "failed",
    ("recv", "waiting", "deadline"): "abandoned",    # never verified at commit
    ("recv", "waiting", "abort"): "aborted",
    ("recv", "verified", "commit"): "committed",
    ("recv", "verified", "rollback"): "rolled_back",
    ("recv", "verified", "abort"): "aborted",
}

#: States with no outgoing transitions: every exchange must leave each frame
#: in exactly one of these (the model checker's liveness invariant).
TERMINAL_ROUND_STATES = frozenset(
    {"committed", "rolled_back", "reclaimed", "abandoned", "failed", "aborted"}
)

_NO_IDS = np.empty(0, dtype=np.int64)


class _Frame:
    """Protocol state of one frame: the samples of one window bound for (or
    owed by) one peer."""

    __slots__ = (
        "side", "window", "peer", "tag", "samples", "nbytes", "payload",
        "staged", "recv_req", "attempts", "nack_t", "nack_wait", "state",
    )

    def __init__(self, side: str, window: int, peer: int, tag: int, samples: int):
        self.side = side            # "send" (we posted it) / "recv" (owed to us)
        self.window = window
        self.peer = peer            # destination of a send, source of a recv
        self.tag = tag
        self.samples = samples      # what the plan puts in this frame
        self.nbytes = 0             # logical sample bytes (payload_nbytes model)
        self.payload = None         # send: until ACKed; recv: verified, not staged
        self.staged = None          # recv: the rows staged in storage slots
        self.recv_req = None        # outstanding irecv (None once verified)
        self.attempts = 0           # send: resends performed; recv: NACKs sent
        self.nack_t = 0.0           # recv: when we last NACKed this frame
        self.nack_wait = 0.0        # recv: silence tolerated before the next NACK
        self.state = "inflight" if side == "send" else "waiting"

    def advance(self, event: str) -> str:
        """Advance the protocol state through :data:`ROUND_TRANSITIONS`.

        Raises ``RuntimeError`` on a transition the table does not allow —
        an illegal transition here is a protocol bug, not a transient."""
        new = ROUND_TRANSITIONS.get((self.side, self.state, event))
        if new is None:
            raise RuntimeError(
                f"illegal protocol transition: {self.side} frame (window "
                f"{self.window}, peer {self.peer}) in state {self.state!r} "
                f"got event {event!r}"
            )
        self.state = new
        return new


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
    allow_self:
        Forwarded to the plan; see :class:`ExchangePlan`.
    ledger:
        Optional :class:`~repro.elastic.ReplicaLedger`.  When given, every
        ``clean_local_storage()`` commits the epoch's sample movements to it
        (a small allgather of ``(gid, dest)`` deltas), keeping a replicated
        record of which rank holds which sample — the map shard recovery
        consults after a failure.
    resend_timeout_s:
        Base interval of silence after which an unverified frame is NACKed
        again (exponential backoff, deterministic jitter).
    max_attempts:
        Per-frame bound on both resends and NACKs before the exchange gives
        up with :class:`~repro.mpi.errors.UnrecoveredFaultError`.
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
        allow_self: bool = True,
        granularity: int = 1,
        selection: str = "random",
        ledger=None,
        resend_timeout_s: float = 0.25,
        max_attempts: int = 16,
        deadline_s: float | None = None,
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction Q must be in [0,1], got {fraction}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        if selection not in ("random", "stale", "importance"):
            raise ValueError(
                f"selection must be random/stale/importance, got {selection!r}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.storage = storage
        self.comm = comm
        self.fraction = fraction
        self.batch_size = batch_size
        self.seed = seed
        self.allow_self = allow_self
        # §III-E: "our scheduler could however be simply extended to exchange
        # batches of samples instead of individual samples" — ``granularity``
        # samples share each plan round's destination (LMDB-style groups).
        self.granularity = granularity
        # Which local samples to exchange: "random" is Algorithm 1's draw;
        # "stale" evicts the samples that have sat in the shard longest;
        # "importance" uses externally supplied scores (highest first) — the
        # §IV-B future-work hook for importance-sampling-aware exchange.
        self.selection = selection
        self.ledger = ledger
        self.resend_timeout_s = resend_timeout_s
        self.max_attempts = max_attempts
        self.deadline_s = deadline_s
        self._nack_backoff = Backoff(
            resend_timeout_s, factor=2.0, cap_s=max(resend_timeout_s * 8, 0.05)
        )
        self._scores: dict[int, float] = {}
        self._arrival_epoch: dict[int, int] = {}
        self._tree = SeedTree(seed)

        self.epoch: int | None = None
        self.plan: ExchangePlan | None = None
        self._selected_ids: list[int] = []
        # Per selected sample, in plan-round order: where the plan sends it,
        # who sends us its counterpart, and its gid once posted (-1 =
        # untracked).
        self._dest_of = self._src_of = self._sent_gids = _NO_IDS
        self._next_round = 0  # chunked-communication cursor (whole windows)
        self._window = 0      # rounds per window, frozen at the first post
        self._send_reqs: list[Request] = []
        self._recv_reqs: list[Request] = []
        # What the commit staged into storage slots, in plan-round order.
        self._received: Sequence[tuple[np.ndarray, int, int | None]] = ()
        # (gid, dest local rank) of the committed, gid-tracked sends.
        self._sent_moves: list[tuple[int, int]] = []
        self._cleaned = True
        self._sends: dict[tuple[int, int], _Frame] = {}  # by (window, dest)
        self._recvs: list[_Frame] = []                   # (window, src) order
        # What a sweep works on: the owed frames not yet verified, and the
        # sent ones not yet ACKed (both in post order).
        self._pending: list[_Frame] = []
        self._unacked: dict[tuple[int, int], _Frame] = {}
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
        self.total_sent_samples = 0
        self.total_recv_samples = 0
        self.total_sent_bytes = 0
        self.resent_bytes = 0
        #: Most windows this rank had send frames out of at once (oldest
        #: un-ACKed to newest posted); see :data:`WINDOWS_IN_FLIGHT_BOUND`.
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
            # A plan round moves ``granularity`` samples; the plan is built at
            # round granularity so balance holds per round AND per sample.
            n_messages = -(-k // self.granularity) if k else 0
            self.plan = ExchangePlan.for_epoch(
                seed=self.seed,
                epoch=epoch,
                size=self.comm.size,
                rounds=n_messages,
                allow_self=self.allow_self,
            )
            rank, g = self.comm.rank, self.granularity
            self._dest_of = np.repeat(self.plan.destinations[:, rank], g)[:k]
            self._src_of = np.repeat(self.plan.sources[:, rank], g)[:k]
            self._sent_gids = np.full(k, -1, dtype=np.int64)
            # Under run_spmd(verify=True) the communicator can prove the
            # Algorithm-1 precondition: every rank derived bit-identical
            # destination permutations from the shared seed.  scheduling()
            # is already collective (the allreduce above), so this extra
            # collective is safe.
            check_identical = getattr(self.comm, "assert_identical", None)
            if check_identical is not None:
                check_identical(
                    self.plan.destinations, label=f"exchange-plan/epoch{epoch}"
                )
            sp.set(
                rounds=n_messages,
                samples=k,
                # CRC of the destination matrix: two ranks whose fingerprints
                # differ diverged on the shared-seed plan — the first thing a
                # post-mortem checks.
                rng_fingerprint=zlib.crc32(self.plan.destinations.tobytes()),
            )
        self._next_round = 0
        self._window = 0
        self._send_reqs = []
        self._recv_reqs = []
        self._received = ()
        self._sent_moves = []
        self._sends = {}
        self._recvs = []
        self._pending = []
        self._unacked = {}
        self._ctrl_tag = EXCHANGE_CTRL.tag(parity=(self.epoch % 2) * _EPOCH_PARITY_BIT)
        self._cleaned = False

    def _select_samples(self, k: int, epoch: int) -> list[int]:
        """Pick the k local samples forming this epoch's global partition."""
        ids = self.storage.ids()
        rng = self._tree.per_rank("select", self.comm.rank, epoch)
        if self.selection == "random":
            perm = rng.permutation(len(ids))
            return [ids[i] for i in perm[:k].tolist()]
        if self.selection == "stale":
            # Oldest arrivals leave first; ties broken by the rank stream so
            # the initial epoch (all ties) is still a uniform draw.
            jitter = rng.random(len(ids))
            order = sorted(
                range(len(ids)),
                key=lambda i: (self._arrival_epoch.get(ids[i], -1), jitter[i]),
            )
            return [ids[i] for i in order[:k]]
        # importance: highest externally supplied score leaves first.
        jitter = rng.random(len(ids))
        order = sorted(
            range(len(ids)),
            key=lambda i: (-self._scores.get(ids[i], 0.0), jitter[i]),
        )
        return [ids[i] for i in order[:k]]

    def set_score(self, sid: int, score: float) -> None:
        """Record an importance score for a stored sample (e.g. its last
        training loss); used by ``selection="importance"``."""
        if sid not in self.storage:
            raise KeyError(f"no sample with id {sid} in storage")
        self._scores[sid] = float(score)

    @property
    def rounds(self) -> int:
        """Plan rounds this worker plays this epoch.  With ``granularity``
        g this is ceil(k / g) for k exchanged samples."""
        self._require_scheduled()
        return self.plan.rounds

    @property
    def chunk_rounds(self) -> int:
        """Plan rounds per window — what one training iteration posts under
        overlap: Q*b samples' worth (>= 1)."""
        return max(1, int(round(self.fraction * self.batch_size / self.granularity)))

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
        self._post_windows(self.plan.rounds, mode="blocking")
        return self._send_reqs, self._recv_reqs

    def communicate_chunk(self) -> int:
        """Post the next window — Q*b rounds, one training iteration's share
        of the exchange (the Figure 4 overlap step) — and, after every
        :data:`SERVICE_EVERY`-th, service what has arrived (:meth:`_sweep`).
        Returns rounds posted."""
        self._require_scheduled()
        before = self._next_round
        self._post_windows(before + 1, mode="overlap")
        posted = self._next_round - before
        if posted and -(-self._next_round // self._window) % SERVICE_EVERY == 0:
            self._sweep()
        return posted

    def _frame_samples(self, lo: int, hi: int) -> int:
        """Samples the plan puts in rounds ``[lo, hi)`` (the last round of
        an epoch may be short of ``granularity``)."""
        g, k = self.granularity, len(self._selected_ids)
        return min(hi * g, k) - min(lo * g, k)

    def _post_windows(self, upto: int, *, mode: str) -> None:
        """Post whole windows until the cursor reaches plan round ``upto``.

        The window grid is fixed for the epoch (``chunk_rounds`` at the
        first post), so every rank cuts the plan into the same frames no
        matter how many ``communicate_chunk`` calls it made."""
        upto = min(upto, self.plan.rounds)
        if self._next_round >= upto:
            return
        if not self._window:
            self._window = self.chunk_rounds
        parity = (self.epoch % 2) * _EPOCH_PARITY_BIT
        size = self.comm.size
        while self._next_round < upto:
            lo = self._next_round
            hi = min(lo + self._window, self.plan.rounds)
            window = lo // self._window
            tag = EXCHANGE_DATA.tag(window, parity=parity)
            # Group the window's samples by peer; both sides read the same
            # plan, so a receiver knows which frames it is owed and how
            # many samples each carries without any announcement.
            first, dest_of, src_of = self._window_samples(lo, hi)
            for dest in np.flatnonzero(np.bincount(dest_of, minlength=size)).tolist():
                self._post_frame(
                    window, dest, tag, first + np.flatnonzero(dest_of == dest), mode
                )
            owed = np.bincount(src_of, minlength=size)
            for src in np.flatnonzero(owed).tolist():
                fr = _Frame("recv", window, src, tag, int(owed[src]))
                # The shared seed tells us the source; a matched irecv is
                # deterministic while remaining wire-identical to ANY_SOURCE.
                fr.recv_req = self.comm.irecv(source=src, tag=tag)
                self._recv_reqs.append(fr.recv_req)
                self._recvs.append(fr)
                self._pending.append(fr)
            self._next_round = hi
            if self._unacked:
                oldest = next(iter(self._unacked))[0]
                self.max_windows_in_flight = max(
                    self.max_windows_in_flight, window - oldest + 1
                )

    def _window_samples(self, lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Plan rounds ``[lo, hi)`` as a run of selected samples: the index
        of its first sample, and each sample's destination and source."""
        g, k = self.granularity, len(self._selected_ids)
        a, b = min(lo * g, k), min(hi * g, k)
        return a, self._dest_of[a:b], self._src_of[a:b]

    def _post_frame(
        self, window: int, dest: int, tag: int, picked: np.ndarray, mode: str
    ) -> None:
        """Pack, seal and isend one frame — the selected samples at indices
        ``picked`` (plan-round order) into a buffer this rank holds (else a
        pool buffer); it stays out until the frame's ACK brings it back."""
        ids = self._selected_ids
        block = self.storage.take([ids[i] for i in picked.tolist()])
        self._sent_gids[picked] = block.gids
        fr = _Frame("send", window, dest, tag, len(block))
        # Byte accounting stays in logical sample bytes (the shared
        # payload_nbytes wire-size model), not envelope bytes.
        fr.nbytes = block.nbytes
        # One flat envelope per frame: a single gather copy into a pooled
        # buffer; after this neither the wire (pass-through) nor the CRC
        # (contiguous) touches the sample bytes until the install copy.
        fr.payload = pack_samples(block, pool=self._frames)
        self.comm.count_copy(fr.payload.payload.nbytes)
        # The timed post.  The wire op under it runs suspended: this event,
        # in logical sample bytes and plan order, is the frame's one record
        # (the racy protocol must not make traces unreproducible).
        with self.flight.span(
            "round.post", epoch=self.epoch, window=window, peer=dest,
            nbytes=fr.nbytes, samples=fr.samples, mode=mode,
        ), self.flight.suspended():
            env = Checksummed.wrap(fr.payload, meta=(self.epoch, window, 0))
            self._send_reqs.append(self.comm.isend(env, dest=dest, tag=tag))
        self._sends[window, dest] = self._unacked[window, dest] = fr

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
        if self._next_round < self.plan.rounds:
            raise RuntimeError(
                f"only {self._next_round}/{self.plan.rounds} rounds posted; "
                "call communicate() before synchronize()"
            )
        with self.flight.span("epoch.commit", epoch=self.epoch) as sp:
            committed = self._complete_rounds()
            self._apply_commit(committed, sp)

    # -------------------------------------------------------- frame protocol
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
        is classified and CRC-verified (pass 1), and only then is each
        verified block copied into storage slots and, after that, ACKed
        (pass 2).  The passes are not interleaved: ``zlib.crc32`` drops the
        GIL and the row copies hold it, and alternating them made the same
        checksums take 2.5x as long under ``threads``."""
        pending = self._pending
        acks = self.comm.testsome([fr.recv_req for fr in pending], self._ctrl_tag)
        progress = self._service_control(acks)
        now = time.monotonic()
        verified, still = [], []
        for fr in pending:
            if fr.recv_req.completed:
                progress = True
                self._handle_data(fr, fr.recv_req, now)
            (still if fr.state == "waiting" else verified).append(fr)
        self._pending = still
        for fr in verified:
            block = unpack_samples(fr.payload)
            fr.staged = self.storage.stage(block)
            self.comm.count_copy(fr.payload.payload.nbytes)
            del block  # the last view of the frame's payload
            fr.payload = None
            with self.flight.suspended():
                self.comm.send(
                    ("ack", self.epoch, fr.window), dest=fr.peer, tag=self._ctrl_tag
                )
        return progress

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
        deadline = (
            None if self.deadline_s is None else self._epoch_t0 + self.deadline_s
        )
        for fr in self._pending:
            fr.nack_wait = self._nack_delay(fr)
        quiet_since = time.monotonic()
        while self._pending or self._unacked:
            self._raise_on_dead_peers()
            if self._sweep():
                quiet_since = time.monotonic()
                continue
            # Timers and the deadline only on idle passes: content already
            # delivered is always drained and verified, even late.
            now = time.monotonic()
            for fr in self._pending:
                if now >= max(quiet_since, fr.nack_t) + fr.nack_wait:
                    self._nack(fr, timed_out=True)
            if deadline is not None and now >= deadline:
                break
            time.sleep(0.001)
        # Frames are kept in window order: the first one still unverified
        # bounds the prefix of complete windows (all of them if none is).
        windows = -(-self.plan.rounds // self._window) if self._window else 0
        prefix = self._pending[0].window if self._pending else windows
        # Uniform collective: every rank reaches it exactly once per epoch
        # (either with a full prefix or at its deadline).
        return int(self.comm.allreduce(prefix, op=min))

    def _nack_delay(self, fr: _Frame) -> float:
        return self._nack_backoff.delay(
            fr.attempts, key=(self.epoch, fr.window, fr.peer)
        )

    def _acked(self, fr: _Frame) -> None:
        """The receiver copied the frame out: its buffer is ours again."""
        fr.advance("ack")
        self._frames.put(fr.payload.buf)
        fr.payload = None
        del self._unacked[fr.window, fr.peer]

    def _service_control(self, acks: list) -> bool:
        """Apply the ACK/NACK messages one sweep took (``(payload, source)``
        pairs, send order); returns whether anything advanced."""
        progress = False
        for (kind, ep, window), source in acks:
            fr = self._sends.get((window, source)) if ep == self.epoch else None
            if fr is None:
                self.stale_discards += 1
                continue
            if fr.state != "inflight":
                continue  # duplicate ACK, or a NACK that crossed our ACK
            if kind == "ack":
                self._acked(fr)
                self.flight.record(
                    "round.ack", epoch=self.epoch, window=window, peer=fr.peer
                )
            else:  # NACK for a frame we still owe
                fr.attempts += 1
                if fr.attempts > self.max_attempts:
                    fr.advance("nack_overflow")
                    self._unrecovered(
                        f"exchange window {window} of epoch {self.epoch}: "
                        f"{fr.attempts} attempts to rank {fr.peer} all failed",
                        window=window,
                        peer=fr.peer,
                    )
                fr.advance("nack")
                self.resends += 1
                self.resent_bytes += fr.nbytes
                self.flight.record(
                    "round.resend", epoch=self.epoch, window=window,
                    peer=fr.peer, attempt=fr.attempts,
                )
                env = Checksummed.wrap(
                    fr.payload, meta=(self.epoch, window, fr.attempts)
                )
                with self.flight.suspended():
                    self._send_reqs.append(
                        self.comm.isend(env, dest=fr.peer, tag=fr.tag)
                    )
            progress = True
        return progress

    def _handle_data(self, fr: _Frame, req, now: float) -> None:
        """Classify one completed data receive for frame ``fr``; a verified
        payload is left on the frame for the sweep's copy-out pass."""
        env = req.wait()
        if (
            not isinstance(env, Checksummed)
            or len(env.meta) != 3
            or not isinstance(env.payload, PackedBatch)
        ):
            self._malformed(fr, "expected a checksummed PackedBatch tagged "
                            "(epoch, window, attempt)")
        ep, window, _attempt = env.meta
        if ep != self.epoch or window != fr.window:
            # Leftover of an earlier same-parity epoch (a duplicate delivery
            # or a resend that raced a deadline): discard, keep listening.
            fr.advance("data_stale")
            self.stale_discards += 1
            self.flight.record(
                "round.stale", epoch=self.epoch, window=fr.window,
                peer=fr.peer, got=(ep, window),
            )
            fr.recv_req = self.comm.irecv(source=fr.peer, tag=fr.tag)
            return
        if env.ok():
            if env.payload.count != fr.samples:
                # Intact bytes that disagree with the shared plan: the two
                # ranks cut the epoch differently.  Never install.
                self._malformed(
                    fr, f"it carries {env.payload.count} samples where the "
                    f"plan puts {fr.samples}"
                )
            fr.advance("data_ok")
            fr.payload = env.payload
            fr.recv_req = None
            self.flight.record(
                "round.verified", epoch=self.epoch, window=fr.window,
                peer=fr.peer, nbytes=env.payload.nbytes, samples=fr.samples,
                # How long the delivery sat in the mailbox before a sweep
                # took it: service time minus post time.
                queued_s=now - req.status.posted_s,
            )
        else:
            self.crc_rejects += 1
            self.flight.record(
                "round.crc_reject", epoch=self.epoch, window=fr.window,
                peer=fr.peer,
            )
            self._nack(fr, timed_out=False)
            fr.recv_req = self.comm.irecv(source=fr.peer, tag=fr.tag)

    def _malformed(self, fr: _Frame, why: str) -> None:
        self._unrecovered(
            f"exchange window {fr.window}: rank {fr.peer} sent a malformed "
            f"envelope; {why}",
            window=fr.window,
            peer=fr.peer,
        )

    def _nack(self, fr: _Frame, *, timed_out: bool) -> None:
        """Ask ``fr.peer`` to retransmit its window-``fr.window`` frame."""
        fr.advance("timeout" if timed_out else "data_corrupt")
        fr.attempts += 1
        if fr.attempts > self.max_attempts:
            fr.advance("nack_overflow")
            self._unrecovered(
                f"exchange window {fr.window} of epoch {self.epoch}: no valid "
                f"payload from rank {fr.peer} after {fr.attempts - 1} NACKs",
                window=fr.window,
                peer=fr.peer,
            )
        if timed_out:
            self.timeout_nacks += 1
        self.flight.record(
            "round.nack", epoch=self.epoch, window=fr.window, peer=fr.peer,
            timed_out=timed_out, nacks=fr.attempts,
        )
        with self.flight.suspended():
            self.comm.send(
                ("nack", self.epoch, fr.window), dest=fr.peer, tag=self._ctrl_tag
            )
        fr.nack_t = time.monotonic()
        fr.nack_wait = self._nack_delay(fr)

    def _raise_on_dead_peers(self) -> None:
        """A genuinely dead counterparty is fail-stop, not transient: hand
        it to the elastic layer as a PeerFailure instead of NACKing a corpse
        until the attempt budget runs out.

        *Any* dead member of the communicator ends the epoch, not only one
        this rank still owes or is owed a frame: the commit allreduce cannot
        complete without it, and a live peer that already raised is in
        ``shrink()`` and will never send the ACK this loop would wait for."""
        dead = self.comm.dead_peers()
        if dead:
            peer = min(dead)
            raise PeerFailure(self.comm.group[peer], dead[peer] or None, op="exchange")

    def _apply_commit(self, committed: int, sp) -> None:
        """Make the agreed prefix of windows this epoch's exchange.

        Windows beyond ``committed`` are rolled back symmetrically: the
        receiver unstages their rows (if they verified) and the sender
        keeps their samples (they drop out of ``_selected_ids``), so no
        sample is lost or duplicated and every shard keeps its size."""
        rounds = self.plan.rounds
        committed_rounds = min(committed * self._window, rounds)
        for fr in self._pending:
            if not fr.recv_req.completed:
                fr.recv_req.cancel()
            fr.recv_req = None
            fr.advance("deadline")
        self._pending = []
        # Settle the send side.  The commit allreduce is a barrier, so every
        # ACK a receiver posted before committing is already in our mailbox:
        # after this drain, "un-ACKed" provably means the receiver never
        # verified (never read) the frame, and the sender reclaims it.
        self._drain_late_acks()
        for fr in self._sends.values():
            if fr.state == "inflight":
                fr.advance("reclaim")
                fr.payload.release()
                fr.payload = None
            else:
                fr.advance("commit" if fr.window < committed else "rollback")
        self._unacked = {}
        # The frames that came back on ACK go home: the pool's in-use balance
        # between epochs is zero and its free lists serve the next epoch.
        self._frames.release_all()
        # The rows were staged — the second (and last) copy of a sample's
        # bytes, charged like the pack gather — as each frame verified.
        staged: list[SampleBlock] = []
        positions: list[np.ndarray] = []
        for fr in self._recvs:
            if fr.state != "verified":
                continue
            if fr.window < committed:
                fr.advance("commit")
                staged.append(fr.staged)
                first, _dest_of, src_of = self._window_samples(
                    fr.window * self._window, (fr.window + 1) * self._window
                )
                positions.append(first + np.flatnonzero(src_of == fr.peer))
            else:
                fr.advance("rollback")
                self.storage.unstage(fr.staged, keep=False)
            fr.staged = None
        # Merge the frames back into plan-round order, so storage sees the
        # same install sequence whatever the framing: a frame's samples sit
        # where the plan names its sender as the source.
        if staged:
            merged = SampleBlock.concat(staged)
            self._received = merged[np.argsort(np.concatenate(positions))]
        planned_samples = len(self._selected_ids)
        committed_samples = self._frame_samples(0, committed_rounds)
        self._selected_ids = self._selected_ids[:committed_samples]
        gids = self._sent_gids[:committed_samples]
        tracked = gids >= 0
        self._sent_moves = list(
            zip(
                gids[tracked].tolist(),
                self._dest_of[:committed_samples][tracked].tolist(),
            )
        )
        self.total_sent_samples += committed_samples
        self.total_sent_bytes += sum(
            fr.nbytes for fr in self._sends.values() if fr.state == "committed"
        )
        self.total_recv_samples += len(self._received)

        # Deficit bookkeeping: this plan contained ``_planned_extra`` samples
        # of repayment; whatever the commit fell short of the plan is newly
        # owed.  Both quantities are globally agreed, so q_deficit stays
        # identical on every rank (and provably >= 0: the agreed k never
        # exceeds min(base) + deficit).
        short = planned_samples - committed_samples
        self.q_deficit = self.q_deficit - self._planned_extra + short
        self.effective_q.append(
            committed_samples / self._n_local if self._n_local else 0.0
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
            samples=committed_samples,
            # Logical bytes installed — the receive side of ``round.post``'s
            # nbytes, taken at the commit rather than at each (racy) arrival.
            recv_nbytes=self._received.nbytes if staged else 0,
            q_deficit=self.q_deficit,
            pool_in_use=self.comm.pool.in_use(),
        )

    def _drain_late_acks(self) -> None:
        """Drain control traffic once more after the commit collective.

        A receiver that verified a frame just before its deadline posts the
        ACK and then enters the commit allreduce; the allreduce acts as a
        barrier, so by the time the sender is here that ACK is guaranteed
        to be in its mailbox even if its event loop had stopped servicing
        control.  This makes ACK state definitive — what the commit/rollback
        bookkeeping of a sent frame, and reclaiming the un-ACKed ones,
        relies on.  Late NACKs are dropped: the epoch is sealed and nobody
        is listening for resends."""
        for (kind, ep, window), source in self.comm.testsome((), self._ctrl_tag):
            fr = self._sends.get((window, source))
            if kind == "ack" and ep == self.epoch and fr is not None:
                if fr.state == "inflight":
                    self._acked(fr)

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
    #: incarnation: traffic totals, per-sample bookkeeping, and the
    #: fault-recovery counters including the Q-deficit.  The same set that
    #: ``PartialLocalShuffle.attach_comm`` carries across a shrink/expand,
    #: and the set a full-job snapshot must persist across a crash/restart.
    STATE_FIELDS = (
        "total_sent_samples",
        "total_recv_samples",
        "total_sent_bytes",
        "_arrival_epoch",
        "_scores",
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
        snapshots are taken.  Dict/list fields are shallow-copied so a
        snapshot is not mutated by subsequent epochs.
        """
        out = {}
        for name in self.STATE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, dict):
                value = dict(value)
            elif isinstance(value, list):
                value = list(value)
            out[name] = value
        return out

    def load_state_dict(self, state: dict) -> None:
        """Restore run-owned exchange state saved by :meth:`state_dict`."""
        for name in self.STATE_FIELDS:
            if name not in state:
                raise KeyError(f"scheduler state missing field {name!r}")
            value = state[name]
            if isinstance(value, dict):
                value = dict(value)
            elif isinstance(value, list):
                value = list(value)
            setattr(self, name, value)

    # ----------------------------------------------------------------- commit
    def clean_local_storage(self) -> None:
        """Install received samples, then retire the transmitted ones.

        Ordering note: installing before evicting transiently holds
        ``(1+Q) * N/M`` samples — exactly the paper's stated peak storage
        requirement (§III-A), which :class:`StorageArea` records via
        ``peak_nbytes``/``peak_count``.

        Transmitted samples with a global id are *demoted* to the storage
        area's cold replica cache rather than deleted: the bytes already
        resident become recovery replicas for the elastic layer, evicted
        automatically whenever a hot add needs the room.
        """
        self._require_scheduled()
        if len(self._received) != len(self._selected_ids):
            raise RuntimeError("call synchronize() before clean_local_storage()")
        if self.ledger is not None:
            # Replicate this epoch's movement record on every rank (small
            # allgather of (gid, dest) pairs) so any survivor can locate
            # every sample's holder after a failure.  Committed *before*
            # any storage mutation: if a peer died, the allgather raises
            # PeerFailure on every survivor with both ledger and storage
            # untouched, so abort_exchange() leaves a consistent state.
            self.ledger.commit_epoch(self.comm, self.epoch, self._sent_moves)
        new_ids = self.storage.add_many(self._received)
        self._arrival_epoch.update(dict.fromkeys(new_ids, self.epoch))
        for sid in self._selected_ids:
            self.storage.demote(sid)
            self._arrival_epoch.pop(sid, None)
            self._scores.pop(sid, None)
        self._received = ()
        self._selected_ids = []
        self._sent_moves = []
        self._sends = {}
        self._recvs = []
        self._cleaned = True

    def abort_exchange(self) -> None:
        """Abandon a partially posted exchange after a peer failure.

        Cancels every outstanding request — including irecvs re-posted by
        the completion loop after a NACK — and resets the per-epoch state so
        :meth:`scheduling` can be called again (typically on a shrunk
        communicator via a rebuilt scheduler).  Nothing was installed or
        retired, so the hot set is exactly what it was at ``scheduling()``
        time and the rows the sweeps staged are given up; samples a commit
        had already merged (its ledger allgather met a dead peer) are not
        dropped but kept as cold replicas (``StorageArea.unstage``)."""
        for fr in [*self._sends.values(), *self._recvs]:
            if fr.state not in TERMINAL_ROUND_STATES:
                fr.advance("abort")
            if fr.recv_req is not None and not fr.recv_req.completed:
                fr.recv_req.cancel()
            fr.recv_req = None
            # The buffer of a frame still out (or verified, the sweep cut
            # short before its copy-out) is *adopted*, not released: abort
            # is not synchronised, the counterparty may still read or resend
            # it.  try_adopt() is idempotent — whichever side gets here
            # first wins the retirement.
            if fr.payload is not None:
                fr.payload.try_adopt()
                fr.payload = None
            if fr.staged is not None:
                self.storage.unstage(fr.staged, keep=False)
                fr.staged = None
        # Frames that came back on ACK have no reader left: they go home.
        self._frames.release_all()
        for req in self._send_reqs + self._recv_reqs:
            if not req.completed:
                req.cancel()
        self._send_reqs = []
        self._recv_reqs = []
        if self._received:
            self.storage.unstage(self._received)
        self._received = ()
        self._selected_ids = []
        self._sent_moves = []
        self._sends = {}
        self._recvs = []
        self._pending = []
        self._unacked = {}
        self._next_round = 0
        self._planned_extra = 0
        self.plan = None
        self.epoch = None
        self._cleaned = True

    def run_exchange(self, epoch: int, deadline_s: float | None = None) -> None:
        """Convenience: the full blocking exchange for one epoch.

        ``deadline_s`` overrides the scheduler's per-epoch exchange deadline
        for this call only."""
        prev = self.deadline_s
        if deadline_s is not None:
            self.deadline_s = deadline_s
        try:
            self.scheduling(epoch)
            send_reqs, recv_reqs = self.communicate()
            self.synchronize(send_reqs, recv_reqs)
            self.clean_local_storage()
        finally:
            self.deadline_s = prev
