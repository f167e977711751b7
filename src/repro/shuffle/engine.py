"""The exchange protocol of one rank and one epoch: events in, actions out.

:class:`ExchangeEngine` is the reliable exchange's state machine over
*frames* — the samples of one window bound for (a send) or owed by (a
receive) one peer.  It reads no clock, holds no buffer and calls no
communicator: the :class:`~repro.shuffle.scheduler.Scheduler` shell feeds
it what happened and carries out the actions it returns, and the protocol
model checker (:mod:`repro.analysis.protocol`) runs M of them against a
modelled network, so the checked protocol is the shipped one.

An action is a tuple ``(verb, frame, *detail)``:

==============  ==========================================================
``send``        pack the frame's samples into a buffer and post it
``resend``      post the frame's payload again (attempt ``frame.attempts``)
``take_back``   the ACK proves its receiver is done: the buffer is ours
``release``     return the frame's buffer to the pool
``release_held`` return every buffer taken back this epoch (frame ``None``)
``stage``       copy a verified frame's samples into storage slots
``ack``         tell the frame's sender it can have its buffer back
``nack``        ask the frame's sender to resend; detail: timed out?
``reject``      a delivery failed its CRC (accounting; a NACK follows)
``discard``     a message of another epoch or window; detail: its
                ``(epoch, window)`` (frame ``None`` for control)
``install``     a committed frame's staged rows join the epoch's arrivals
``unstage``     give a frame's staged rows up
``try_adopt``   retire a buffer that may still be read, idempotently
``fail``        give up on the exchange; detail: why
==============  ==========================================================

``on_peer_dead`` answers ``("peer_failure", rank)``.
"""

from __future__ import annotations

__all__ = [
    "ExchangeEngine",
    "Frame",
    "ROUND_TRANSITIONS",
    "TERMINAL_ROUND_STATES",
]

#: The protocol state machine of one frame, keyed ``(side, state, event) ->
#: new state``: its sender runs the ``send`` side, its receiver the ``recv``
#: side.  :meth:`ExchangeEngine._advance` refuses any transition not listed.
#: A send is ``inflight`` until the ACK of a verified, copied-out delivery
#: (resending on NACKs); a receive is ``waiting`` through stale and corrupt
#: deliveries and timeouts until one verifies.  At commit a frame inside the
#: agreed window prefix commits, one beyond it rolls back, an un-ACKed send
#: (only under a deadline) is reclaimed and a still-waiting receive is
#: abandoned; ``abort`` (peer death) ends either side from any state.
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
TERMINAL_ROUND_STATES = frozenset(ROUND_TRANSITIONS.values()) - {
    state for _side, state, _event in ROUND_TRANSITIONS
}


class Frame:
    """Protocol state of one frame."""

    __slots__ = ("side", "window", "peer", "samples", "state", "attempts")

    def __init__(self, side, window, peer, samples, state=None, attempts=0):
        self.side = side            # "send" (we post it) / "recv" (owed to us)
        self.window = window
        self.peer = peer            # destination of a send, source of a recv
        self.samples = samples      # what the plan puts in this frame
        self.state = state or ("inflight" if side == "send" else "waiting")
        self.attempts = attempts    # send: resends performed; recv: NACKs sent


class ExchangeEngine:
    """One rank's exchange protocol for one epoch.

    ``sends`` and ``owed`` hold every frame posted so far by ``(window,
    peer)`` in post order; ``unacked`` and ``waiting`` are the sends not yet
    ACKed and the owed frames not yet verified, in the same order.
    ``coverage``, when a set, collects every ``(side, state, event)`` taken.
    """

    def __init__(self, epoch: int, *, max_attempts: int, coverage: set | None = None):
        self.epoch = epoch
        self.max_attempts = max_attempts
        self.coverage = coverage
        self.restore((0, ()))

    # ------------------------------------------------------------------ state
    def snapshot(self) -> tuple:
        """The engine's whole state as a hashable value."""
        return (
            self.windows,
            tuple(
                (f.side, f.window, f.peer, f.samples, f.state, f.attempts)
                for f in (*self.sends.values(), *self.owed.values())
            ),
        )

    def restore(self, snap: tuple) -> None:
        """Return to the state :meth:`snapshot` took."""
        self.windows, frames = snap
        self.sends, self.owed, self.unacked, self.waiting = {}, {}, {}, {}
        for rec in frames:
            self._add(Frame(*rec))

    def _add(self, f: Frame) -> None:
        key = (f.window, f.peer)
        if f.side == "send":
            self.sends[key] = f
            if f.state == "inflight":
                self.unacked[key] = f
        else:
            self.owed[key] = f
            if f.state == "waiting":
                self.waiting[key] = f

    def _advance(self, f: Frame, event: str) -> None:
        new = ROUND_TRANSITIONS.get((f.side, f.state, event))
        if new is None:
            raise RuntimeError(
                f"illegal protocol transition: {f.side} frame (window "
                f"{f.window}, peer {f.peer}) in state {f.state!r} got event "
                f"{event!r}"
            )
        if self.coverage is not None:
            self.coverage.add((f.side, f.state, event))
        f.state = new
        if new not in ("inflight", "waiting"):
            (self.unacked if f.side == "send" else self.waiting).pop(
                (f.window, f.peer), None
            )

    # ----------------------------------------------------------------- events
    def post(self, sends, owed) -> list:
        """Window ``windows`` goes out: ``sends`` and ``owed`` are its
        ``(peer, samples)`` pairs each way."""
        window = self.windows
        self.windows += 1
        out = []
        for peer, samples in sends:
            f = Frame("send", window, peer, samples)
            self._add(f)
            out.append(("send", f))
        for peer, samples in owed:
            self._add(Frame("recv", window, peer, samples))
        return out

    def on_data(self, f: Frame, epoch: int, window: int, verify) -> list:
        """A message tagged ``(epoch, window)`` arrived for owed frame ``f``.

        ``verify()`` checks the payload's CRC and returns its sample count,
        or ``None`` when the check fails.  It is called only for a message of
        this epoch and window: a stale one's bytes may belong to a later
        frame of its sender by now, so they are never read."""
        if (epoch, window) != (self.epoch, f.window):
            # Leftover of an earlier same-parity epoch (a duplicate delivery
            # or a resend that raced a deadline): keep listening.
            self._advance(f, "data_stale")
            return [("discard", f, (epoch, window))]
        count = verify()
        if count is None:
            self._advance(f, "data_corrupt")
            return [("reject", f), *self._nack(f, timed_out=False)]
        if count != f.samples:
            # Intact bytes that disagree with the shared plan: the two ranks
            # cut the epoch differently.  Never install.
            return [("fail", f, (
                f"exchange window {f.window}: rank {f.peer} sent a malformed "
                f"envelope; it carries {count} samples where the plan puts "
                f"{f.samples}"
            ))]
        self._advance(f, "data_ok")
        # Copied out before the ACK: an ACK proves the bytes were read.
        return [("stage", f), ("ack", f)]

    def on_ctrl(self, kind: str, epoch: int, window: int, peer: int) -> list:
        """An ACK or NACK from ``peer`` about our frame of ``window``."""
        f = self.sends.get((window, peer)) if epoch == self.epoch else None
        if f is None:
            return [("discard", None, (epoch, window))]
        if f.state != "inflight":
            return []  # a duplicate ACK, or a NACK that crossed our ACK
        if kind == "ack":
            self._advance(f, "ack")
            return [("take_back", f)]
        f.attempts += 1
        if f.attempts > self.max_attempts:
            self._advance(f, "nack_overflow")
            return [("fail", f, (
                f"exchange window {window} of epoch {self.epoch}: "
                f"{f.attempts} attempts to rank {peer} all failed"
            ))]
        self._advance(f, "nack")
        return [("resend", f)]

    def on_timeout(self, f: Frame) -> list:
        """Owed frame ``f`` stayed silent past its backoff interval."""
        self._advance(f, "timeout")
        return self._nack(f, timed_out=True)

    def _nack(self, f: Frame, *, timed_out: bool) -> list:
        f.attempts += 1
        if f.attempts > self.max_attempts:
            self._advance(f, "nack_overflow")
            return [("fail", f, (
                f"exchange window {f.window} of epoch {self.epoch}: no valid "
                f"payload from rank {f.peer} after {f.attempts - 1} NACKs"
            ))]
        return [("nack", f, timed_out)]

    def on_peer_dead(self, dead) -> list:
        """Members of the communicator found dead.

        *Any* of them ends the epoch, not only a peer of a frame still out:
        the commit collective cannot complete without it, and a live peer
        that already gave up will never send what this rank waits for."""
        return [("peer_failure", min(dead))] if dead else []

    def prefix(self) -> int:
        """Leading windows whose every owed frame verified."""
        for f in self.waiting.values():
            return f.window
        return self.windows

    def commit(self, agreed: int, late) -> list:
        """The ranks agreed to commit ``agreed`` windows.

        ``late`` is the control traffic ``((kind, epoch, window), source)``
        drained after the commit collective: that collective is a barrier,
        so every ACK sent before it is in, and an un-ACKed frame was never
        read — its buffer goes back to the pool.  Late NACKs are dropped."""
        out = []
        for (kind, epoch, window), peer in late:
            f = self.unacked.get((window, peer))
            if kind == "ack" and epoch == self.epoch and f is not None:
                self._advance(f, "ack")
                out.append(("take_back", f))
        for f in self.sends.values():
            if f.state == "inflight":
                self._advance(f, "reclaim")
                out.append(("release", f))
            else:
                self._advance(f, "commit" if f.window < agreed else "rollback")
        out.append(("release_held", None))
        for f in self.owed.values():
            if f.state == "waiting":
                self._advance(f, "deadline")
            elif f.window < agreed:
                self._advance(f, "commit")
                out.append(("install", f))
            else:
                self._advance(f, "rollback")
                out.append(("unstage", f))
        return out

    def abort(self) -> list:
        """Abandon the epoch (a peer failed).

        A buffer still out — or verified and not yet copied out — is
        adopted, not released: abort is not synchronised, so the peer may
        still read or resend it, and whichever side gets there first retires
        it."""
        out = []
        for f in (*self.sends.values(), *self.owed.values()):
            was = f.state
            if was not in TERMINAL_ROUND_STATES:
                self._advance(f, "abort")
            if was in ("inflight", "verified", "failed"):
                out.append(("try_adopt", f))
            if was == "verified":
                out.append(("unstage", f))
        out.append(("release_held", None))
        return out
