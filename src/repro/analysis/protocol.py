"""Explicit-state model checker for the reliable-exchange protocol.

The reliable exchange (CRC/ACK/NACK with bounded resends, deadline-based
degraded-Q commit/rollback, pooled frames that go back to their sender on
ACK) is interleaving-sensitive: its unit tests exercise *some* schedules,
this module explores *all* of them on small worlds.

Each rank is the shipped protocol — the
:class:`~repro.shuffle.engine.ExchangeEngine` the
:class:`~repro.shuffle.scheduler.Scheduler` shell drives, snapshotted into
every state and restored to take the next step.  Modelled around the
engines is only what the shell and the world provide:

* **network** — FIFO channels per ``(src, dst)``, data per window tag as in
  the world's per-(source, tag) mailboxes; control is loss-free (chaos
  drops and corrupts data envelopes only) but may be duplicated or delayed;
* **pool and FrameCache** — a ledger of buffer states (``in_use`` /
  ``released`` / ``adopted``) with the live pool's strict double-retire
  and idempotent ``try_adopt``, which round a buffer holds, and the
  buffers a rank took back on ACK;
* **schedule** — a round is one window with one frame each way, posted one
  by one among everything else; an action list runs in order, but other
  ranks may move after any action that sends a message, and a peer failure
  may cut a sweep between verifying a frame and its copy-out and ACK.

Faults (budget-bounded): ``drop`` / ``dup`` / ``corrupt`` / ``delay``
(head-to-tail reordering), ``stale`` (a same-parity envelope two epochs
old) and ``kill`` (fail-stop death).  Invariants: no deadlock (a non-fault
action that changes the state is always enabled); no buffer leak, double
release or double adopt (only a dead or failed rank may strand buffers);
no read of bytes a sender reused and no view kept of a released buffer;
both halves of a frame settle alike, and a settled rank keeps exactly the
agreed commit installed; no stale payload commits; settled ranks agree;
settled and aborted ranks end every frame in
:data:`~repro.shuffle.engine.TERMINAL_ROUND_STATES`.

**Mutant mode** re-checks seeded protocol mutations (:data:`MUTATIONS`);
each exchange mutant is one engine method patched (:func:`mutant_engine`),
a patch a live ``Scheduler`` runs as well.  A mutant without a
counterexample means the invariant net has a hole.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.shuffle.engine import TERMINAL_ROUND_STATES, ExchangeEngine

__all__ = [
    "CheckConfig",
    "CheckResult",
    "Violation",
    "MUTATIONS",
    "ENGINE_PATCHES",
    "DEFAULT_CONFIGS",
    "check",
    "check_model",
    "mutant_engine",
    "run_mutation_sweep",
    "format_trace",
]

#: Epoch the modelled exchange runs in, and the same-parity epoch a
#: ``stale`` fault injects from (two behind, like a resend that out-lived
#: its epoch and its successor).
EPOCH = 3
STALE_EPOCH = EPOCH - 2

_LIVE = ("loop", "commit")
_GONE = ("dead", "failed")


@dataclass(frozen=True)
class CheckConfig:
    """One exploration: world size, rounds, fault alphabet and budget."""

    name: str
    size: int = 2
    #: Rounds (windows) per rank.
    rounds: int = 1
    deadline: bool = False
    faults: tuple[str, ...] = ()
    fault_budget: int = 0
    max_attempts: int = 2
    #: BFS depth bound; ``None`` explores exhaustively.
    max_depth: int | None = None
    mutation: str | None = None

    def dest(self, rank: int, rnd: int) -> int:
        # Never self: cycle through the other ranks round-by-round.
        return (rank + rnd % (self.size - 1) + 1) % self.size

    def src(self, rank: int, rnd: int) -> int:
        return (rank - rnd % (self.size - 1) - 1) % self.size


@dataclass
class Violation:
    kind: str
    detail: str
    trace: tuple[str, ...]


@dataclass
class CheckResult:
    config: CheckConfig
    states: int = 0
    transitions: int = 0
    truncated: bool = False
    violations: list[Violation] = field(default_factory=list)
    #: ``(side, state, event)`` table entries the exploration exercised.
    coverage: set = field(default_factory=set)

#: Exchange mutation -> ``(ExchangeEngine method, replacement, what breaks)``.
ENGINE_PATCHES: dict[str, tuple] = {}


def _mutant(method: str, breaks: str):
    """Register the decorated function, named after the mutation, as a
    replacement for ``ExchangeEngine.<method>``."""

    def register(patch):
        ENGINE_PATCHES[patch.__name__.lstrip("_")] = (method, patch, breaks)
        return patch

    return register


@_mutant("post", "each frame goes back to the pool right after its isend "
         "instead of on ACK, so the commit releases it a second time")
def _release_before_ack(self, sends, owed):
    acts = ExchangeEngine.post(self, sends, owed)
    return [act for send in acts for act in (send, ("release", send[1]))]


@_mutant("commit", "the late-ACK drain is ignored: the sender reclaims a "
         "frame whose ACK was in flight while its receiver commits it")
def _skip_drain_late_acks(self, agreed, late):
    return ExchangeEngine.commit(self, agreed, ())


@_mutant("abort", "teardown adopts strictly instead of try_adopt(), losing "
         "the race where both sides retire one in-flight buffer")
def _no_adopt_guard(self):
    acts = ExchangeEngine.abort(self)
    return [("adopt", *act[1:]) if act[0] == "try_adopt" else act for act in acts]


@_mutant("on_data", "the (epoch, window) identity check is dropped, so a "
         "stale same-parity envelope can verify and commit")
def _skip_stale_check(self, f, epoch, window, verify):
    return ExchangeEngine.on_data(self, f, self.epoch, f.window, verify)


@_mutant("on_data", "the receiver ACKs on arrival, before the CRC check: "
         "the sender settles as delivered a frame never validly received")
def _ack_before_verify(self, f, epoch, window, verify):
    acts = ExchangeEngine.on_data(self, f, epoch, window, verify)
    if acts[0][0] == "discard":
        return acts
    return [("ack", f), *(act for act in acts if act[0] != "ack")]


@_mutant("on_data", "a verified frame is ACKed before it is copied out: the "
         "sender packs a later round into bytes still being read")
def _ack_before_stage(self, f, epoch, window, verify):
    acts = ExchangeEngine.on_data(self, f, epoch, window, verify)
    return acts[::-1] if f.state == "verified" else acts


@_mutant("commit", "a round rolled back keeps its staged rows: the receiver "
         "keeps samples their sender kept too")
def _stage_counts_as_commit(self, agreed, late):
    acts = ExchangeEngine.commit(self, agreed, late)
    return [act for act in acts if act[0] != "unstage"]


@_mutant("on_timeout", "no NACK on timeout: a dropped data message stalls "
         "the exchange forever without a deadline")
def _no_timeout_nack(self, f):
    return []


@_mutant("commit", "a degraded commit keeps the frames taken back on ACK "
         "instead of returning them to the pool")
def _forget_rollback_release(self, agreed, late):
    acts = ExchangeEngine.commit(self, agreed, late)
    if agreed < self.windows:
        acts = [act for act in acts if act[0] != "release_held"]
    return acts


@_mutant("commit", "un-ACKed send buffers are never released")
def _forget_unacked_release(self, agreed, late):
    acts = ExchangeEngine.commit(self, agreed, late)
    return [act for act in acts if act[0] != "release"]


@_mutant("on_data", "storage keeps zero-copy views of a frame instead of a "
         "copy, and it is still ACKed: the sender reuses bytes still viewed")
def _release_under_view(self, f, epoch, window, verify):
    acts = ExchangeEngine.on_data(self, f, epoch, window, verify)
    return [("stage_view", f) if act[0] == "stage" else act for act in acts]


@_mutant("on_peer_dead", "only a dead peer of the rank's own open frames "
         "ends its epoch: a bystander waits forever on a peer that aborted")
def _dead_peer_filter(self, dead):
    mine = {peer for _window, peer in (*self.unacked, *self.waiting)}
    return ExchangeEngine.on_peer_dead(self, [d for d in dead if d in mine])


def mutant_engine(name: str) -> type[ExchangeEngine]:
    """:class:`ExchangeEngine` with mutation ``name``'s method patched in."""
    method, patch, _breaks = ENGINE_PATCHES[name]
    return type(f"ExchangeEngine[{name}]", (ExchangeEngine,), {method: patch})


#: Seeded protocol mutations for mutant mode, each removing one load-bearing
#: line of the real protocol (the engine patches above).  Every one must
#: produce a counterexample.
MUTATIONS: dict[str, str] = {
    name: f"{method}: {breaks}" for name, (method, _p, breaks) in ENGINE_PATCHES.items()
}


class _Bug(Exception):
    """Raised while applying an action when an invariant breaks there."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


# --------------------------------------------------------------------- state
# A state is hashable nested tuples: per rank, the channels, the buffer
# ledger (bid -> (pool state, round whose samples the bytes hold)) and the
# fault budget used.  Per rank (in this order): status, the agreed commit,
# the engine's snapshot; then per round the buffer its send frame is out in
# (sbuf), the buffer it verified and has not copied out (rpay), that
# payload's epoch (pep) and whether its rows are staged; the buffers taken
# back on ACK and held (free); and what is left of an action list the rank
# is in the middle of (pending).
_STATUS, _COMMITTED, _ENGINE, _SBUF, _RPAY, _PEP, _STAGED, _FREE, _PENDING = range(9)


class _Model:
    """One exploration's fixed parts: the config, and one reusable engine
    per rank of the class under check (a mutant's patched subclass)."""

    def __init__(self, cfg: CheckConfig, coverage: set):
        cls = ExchangeEngine
        if cfg.mutation in ENGINE_PATCHES:
            cls = mutant_engine(cfg.mutation)
        self.cfg = cfg
        self.engines = [
            cls(EPOCH, max_attempts=cfg.max_attempts, coverage=coverage)
            for _ in range(cfg.size)
        ]


class _Rank:
    """One rank thawed: its engine restored, its shell state as lists."""

    __slots__ = ("status", "committed", "engine", "sbuf", "rpay", "pep", "staged",
                 "free", "pending")

    def __init__(self, frozen: tuple, engine: ExchangeEngine):
        (self.status, self.committed, snap, *bufs, free, pending) = frozen
        engine.restore(snap)
        self.engine = engine
        self.sbuf, self.rpay, self.pep, self.staged = map(list, bufs)
        self.free, self.pending = list(free), list(pending)

    def freeze(self) -> tuple:
        return (
            self.status, self.committed, self.engine.snapshot(), tuple(self.sbuf),
            tuple(self.rpay), tuple(self.pep), tuple(self.staged), tuple(self.free),
            tuple(self.pending),
        )


class _Work:
    """A mutable copy of one frozen state; ranks thaw on first use."""

    def __init__(self, model: _Model, frozen: tuple):
        self.model = model
        self.frozen_ranks, chans, ledger, self.faults_used = frozen
        self.chans = dict(chans)
        self.ledger = dict(ledger)
        self.ranks: dict[int, _Rank] = {}

    def rank(self, r: int) -> _Rank:
        if r not in self.ranks:
            self.ranks[r] = _Rank(self.frozen_ranks[r], self.model.engines[r])
        return self.ranks[r]

    def push(self, chan, msg) -> None:
        self.chans[chan] = self.chans.get(chan, ()) + (msg,)

    def pop(self, chan):
        head, *rest = self.chans[chan]
        self.chans[chan] = tuple(rest)
        return head

    def freeze(self) -> tuple:
        ranks = tuple(
            self.ranks[r].freeze() if r in self.ranks else rf
            for r, rf in enumerate(self.frozen_ranks)
        )
        chans = tuple(sorted((k, v) for k, v in self.chans.items() if v))
        return (ranks, chans, tuple(sorted(self.ledger.items())), self.faults_used)


def _initial(model: _Model) -> tuple:
    """Every rank has posted its first round (send and irecv); later rounds
    are posted one by one, interleaved with the rest."""
    cfg = model.cfg
    none = (None,) * cfg.rounds
    rank = ("loop", -1, (0, ()), none, none, none, (False,) * cfg.rounds, (), ())
    w = _Work(model, ((rank,) * cfg.size, (), (), 0))
    for r in range(cfg.size):
        _post(w, r)
    return w.freeze()


# ------------------------------------------------------------------- actions
def _retire(ledger: dict, bid, to: str, *, strict: bool) -> None:
    """Pool release/adopt with the live pool's double-retire semantics."""
    if bid is None:
        return
    state, holds = ledger[bid]
    if state != "in_use":
        if strict:
            raise _Bug(
                "double_retire",
                f"buffer {bid} already {state}; {to} is a use-after-free",
            )
        return  # try_adopt: the other side already settled it
    ledger[bid] = (to, holds)


def _read(w: _Work, r: int, i: int, bid, doing: str) -> None:
    """The use-after-release check where bytes are read: the buffer must
    still hold the round the reader takes it for."""
    holds = w.ledger[bid][1]
    if holds != i:
        raise _Bug(
            "use_after_release",
            f"rank {r} {doing} round {i} from buffer {bid}, which its sender "
            f"has already packed round {holds} into",
        )


def _apply(w: _Work, r: int, rank: _Rank, action: tuple) -> bool:
    """Carry out one engine action the way the shell does, on the modelled
    network, pool and storage; returns whether it sent a message."""
    verb, f, *_detail = action
    i = None if f is None else f.window
    if verb == "send":
        # Pack into a frame the rank holds (it came back on an ACK), else
        # into a fresh pool buffer.
        if rank.free:
            bid = rank.free.pop()
            w.ledger[bid] = (w.ledger[bid][0], i)  # the bytes are round i's now
        else:
            bid = (r, i)
            w.ledger[bid] = ("in_use", i)
        rank.sbuf[i] = bid
    if verb in ("send", "resend"):
        w.push((r, f.peer, "data", i), (EPOCH, i, rank.sbuf[i], True))
        return True
    if verb in ("ack", "nack"):
        w.push((r, f.peer, "ctrl", 0), (verb, EPOCH, i))
        return True
    if verb == "take_back":
        rank.free.append(rank.sbuf[i])
        rank.sbuf[i] = None
    elif verb == "release":
        _retire(w.ledger, rank.sbuf[i], "released", strict=True)
    elif verb == "release_held":
        for bid in rank.free:
            _retire(w.ledger, bid, "released", strict=True)
        rank.free = []
    elif verb in ("stage", "stage_view"):
        if rank.rpay[i] is not None:
            _read(w, r, i, rank.rpay[i], "copies out")
        rank.staged[i] = True
        if verb == "stage":
            rank.rpay[i] = None  # samples copied out: no view remains
    elif verb == "unstage":
        rank.staged[i] = False
    elif verb == "install":
        if rank.pep[i] != EPOCH:
            raise _Bug(
                "stale_commit",
                f"rank {r} committed round {i} with a payload from epoch "
                f"{rank.pep[i]} (current epoch {EPOCH})",
            )
    elif verb in ("try_adopt", "adopt"):
        held = rank.sbuf if f.side == "send" else rank.rpay
        _retire(w.ledger, held[i], "adopted", strict=verb == "adopt")
        held[i] = None
    elif verb == "fail":
        rank.status = "failed"  # UnrecoveredFaultError
    elif verb not in ("reject", "discard"):
        raise RuntimeError(f"the model cannot carry out action {verb!r}")
    return False


def _run(w: _Work, r: int, rank: _Rank, acts: list) -> None:
    """Carry out ``acts`` in order.  Other ranks may move after an action
    that sends a message, so the rank keeps whatever follows one pending."""
    for j, action in enumerate(acts):
        if _apply(w, r, rank, action) and j + 1 < len(acts):
            rank.pending = [
                (verb, None, None, *detail) if f is None
                else (verb, f.side, f.window, *detail)
                for verb, f, *detail in acts[j + 1:]
            ]
            return


def _resume(w: _Work, r: int) -> None:
    rank = w.rank(r)
    cfg, engine = w.model.cfg, rank.engine
    acts = []
    for verb, side, i, *detail in rank.pending:
        f = None
        if side == "send":
            f = engine.sends[i, cfg.dest(r, i)]
        elif side == "recv":
            f = engine.owed[i, cfg.src(r, i)]
        acts.append((verb, f, *detail))
    rank.pending = []
    _run(w, r, rank, acts)


def _post(w: _Work, r: int) -> None:
    """communicate_chunk: the rank's next round goes out (send + irecv)."""
    rank, cfg = w.rank(r), w.model.cfg
    i = rank.engine.windows
    _run(w, r, rank, rank.engine.post([(cfg.dest(r, i), 1)], [(cfg.src(r, i), 1)]))


def _ctrl(w: _Work, r: int, s: int) -> None:
    rank = w.rank(r)
    kind, epoch, i = w.pop((s, r, "ctrl", 0))
    _run(w, r, rank, rank.engine.on_ctrl(kind, epoch, i, s))


def _deliver(w: _Work, r: int, i: int, *, cut: bool = False) -> None:
    """The head data message goes into the posted irecv — verified, copied
    out and ACKed in one sweep, unless ``cut``: a peer failure between the
    sweep's two passes leaves a verified frame's actions undone."""
    rank = w.rank(r)
    src = w.model.cfg.src(r, i)
    epoch, idx, bid, ok = w.pop((src, r, "data", i))
    f = rank.engine.owed[i, src]

    def verify():
        if bid is not None:
            _read(w, r, i, bid, "verifies")
        return 1 if ok else None

    acts = rank.engine.on_data(f, epoch, idx, verify)
    if f.state == "verified":
        rank.rpay[i], rank.pep[i] = bid, epoch
        if cut:
            acts = []
    _run(w, r, rank, acts)
    if cut:
        _abort(w, r)


def _timeout(w: _Work, r: int, i: int) -> None:
    rank = w.rank(r)
    f = rank.engine.owed[i, w.model.cfg.src(r, i)]
    _run(w, r, rank, rank.engine.on_timeout(f))


def _abort(w: _Work, r: int) -> None:
    """PeerFailure teardown (abort_exchange)."""
    rank = w.rank(r)
    rank.pending = []
    for action in rank.engine.abort():
        _apply(w, r, rank, action)
    rank.status = "aborted"


def _commit_all(w: _Work) -> None:
    """The commit allreduce (a barrier), then every rank settles on what
    its late-ACK drain found."""
    size = w.model.cfg.size
    ranks = [w.rank(r) for r in range(size)]
    agreed = min(rank.engine.prefix() for rank in ranks)
    for r, rank in enumerate(ranks):
        late = [(msg, s) for s in range(size) for msg in w.chans.pop((s, r, "ctrl", 0), ())]
        _run(w, r, rank, rank.engine.commit(agreed, late))
        rank.status, rank.committed = "settled", agreed


def _successors(model: _Model, frozen: tuple) -> list:
    """``(label, is_fault, outcome)`` for every enabled action, where
    outcome is a frozen next state or a :class:`_Bug`."""
    cfg = model.cfg
    out = []

    def act(label, fn, *, fault=False):
        """One enabled action: ``fn`` applied, now, to a copy of the state."""
        w = _Work(model, frozen)
        try:
            w.faults_used += fault
            fn(w)
        except _Bug as bug:
            out.append((label, fault, bug))
        else:
            out.append((label, fault, w.freeze()))

    ranks_f = frozen[0]
    chans = dict(frozen[1])
    statuses = [rf[_STATUS] for rf in ranks_f]
    gone = [r for r, s in enumerate(statuses) if s in _GONE]
    views = []
    for r, rf in enumerate(ranks_f):
        engine = model.engines[r]
        engine.restore(rf[_ENGINE])
        views.append((
            engine.windows,
            [f.window for f in engine.waiting.values()],
            not engine.waiting and not engine.unacked,
            bool(gone and engine.on_peer_dead(gone)),
        ))
    # Epochs are in lockstep (the training loop's collective every
    # iteration), so a rank is in synchronize() — timers armed, the deadline
    # checked — only once every rank has posted its last round.
    all_posted = all(view[0] == cfg.rounds for view in views)

    for r in range(cfg.size):
        if statuses[r] != "loop":
            continue
        posted, waiting, done, peer_dead = views[r]
        pending = ranks_f[r][_PENDING]
        if pending:
            verb, _side, i, *_ = pending[0]
            act(f"rank{r}: {verb} round {i}", lambda w: _resume(w, r))
        else:
            if posted < cfg.rounds:
                act(f"rank{r}: post round {posted}", lambda w: _post(w, r))
            for s in range(cfg.size):
                if chans.get((s, r, "ctrl", 0)):
                    act(f"rank{r}: ctrl from rank{s}", lambda w: _ctrl(w, r, s))
            for i in waiting:
                src = cfg.src(r, i)
                if chans.get((src, r, "data", i)):
                    act(f"rank{r}: data round {i} from rank{src}",
                        lambda w: _deliver(w, r, i))
                    if gone:
                        act(f"rank{r}: data round {i} from rank{src}, peer failure "
                            "before the copy-out, abort",
                            lambda w: _deliver(w, r, i, cut=True))
                elif all_posted:
                    # Timers run in synchronize() only, and only when no
                    # deliverable data waits (the loop sweeps first).
                    act(f"rank{r}: timeout NACK round {i}",
                        lambda w: _timeout(w, r, i))
            if all_posted and done:
                act(f"rank{r}: all rounds done, enter commit",
                    lambda w: setattr(w.rank(r), "status", "commit"))
            elif all_posted and cfg.deadline:
                act(f"rank{r}: deadline expires",
                    lambda w: setattr(w.rank(r), "status", "commit"))
        if peer_dead:
            act(f"rank{r}: peer failure detected, abort", lambda w: _abort(w, r))

    # Commit collective: all ranks arrived -> atomic min-allreduce + settle.
    if all(s == "commit" for s in statuses):
        act(f"commit allreduce (all {cfg.size} ranks)", _commit_all)
    elif gone:
        # A rank blocked in the collective while a peer is dead/failed gets
        # PeerFailure from the rendezvous and aborts.
        for r in range(cfg.size):
            if statuses[r] == "commit":
                act(f"rank{r}: peer failure at commit, abort", lambda w: _abort(w, r))

    # ------------------------------------------------------------- faults
    if frozen[3] >= cfg.fault_budget:
        return out
    for chan, msgs in chans.items():
        src, dst, kind, i = chan
        where = f"head of {kind}[{src}->{dst},{i}]"
        if "drop" in cfg.faults and kind == "data":
            act(f"fault: drop {where}", lambda w: w.pop(chan), fault=True)
        if "corrupt" in cfg.faults and kind == "data" and msgs[0][3]:
            def corrupt(w):
                epoch, idx, bid, _ok = w.chans[chan][0]
                w.chans[chan] = ((epoch, idx, bid, False), *w.chans[chan][1:])

            act(f"fault: corrupt {where}", corrupt, fault=True)
        if "dup" in cfg.faults:
            act(f"fault: duplicate {where}",
                lambda w: w.push(chan, w.chans[chan][0]), fault=True)
        if "delay" in cfg.faults and len(msgs) >= 2:
            act(f"fault: delay {where}",
                lambda w: w.push(chan, w.pop(chan)), fault=True)
    for r in range(cfg.size):
        if "stale" in cfg.faults and statuses[r] == "loop":
            for i in range(cfg.rounds):
                src = cfg.src(r, i)
                act(f"fault: stale epoch-{STALE_EPOCH} data[{src}->{r},{i}]",
                    lambda w: w.push((src, r, "data", i), (STALE_EPOCH, i, None, True)),
                    fault=True)
        if "kill" in cfg.faults and statuses[r] in _LIVE:
            act(f"fault: kill rank{r}",
                lambda w: setattr(w.rank(r), "status", "dead"), fault=True)
    return out


# ------------------------------------------------------------------ checking
#: What the two halves of one frame may end as when both ranks settled.
_SETTLED_PAIRS = {
    ("committed", "committed"), ("rolled_back", "rolled_back"),
    ("reclaimed", "abandoned"),
}


def _terminal_bugs(model: _Model, frozen: tuple) -> list[tuple[str, str]]:
    """Invariant checks on a terminal state (no live rank remains)."""
    cfg = model.cfg
    bugs = []
    ranks_f, _chans, ledger_f, _ = frozen
    engines = model.engines
    for r, rf in enumerate(ranks_f):
        engines[r].restore(rf[_ENGINE])
    # Buffer leak: an in_use buffer not referenced by a dead/failed rank.
    refs_dead = set()
    for rf in ranks_f:
        if rf[_STATUS] in _GONE:
            refs_dead.update(rf[_FREE], rf[_SBUF], rf[_RPAY])
    for bid, (state, _holds) in ledger_f:
        if state == "in_use" and bid not in refs_dead:
            bugs.append(("buffer_leak", f"buffer {bid} still in_use at exchange "
                         "end with no dead rank holding it"))
    released = {bid for bid, (state, _holds) in ledger_f if state == "released"}
    settled = [r for r, rf in enumerate(ranks_f) if rf[_STATUS] == "settled"]
    for r in settled:
        rf = ranks_f[r]
        for i in range(cfg.rounds):
            # Use after release: a settled rank still references (installed
            # views of) a buffer that went back to the pool.
            if rf[_RPAY][i] in released:
                bugs.append(("use_after_release", f"rank {r} still views buffer "
                             f"{rf[_RPAY][i]} of round {i} after its sender "
                             "released it to the pool"))
            # The two halves of a frame settle alike (so a committed window
            # is committed on its sender too, and an ACK means "verified").
            peer = cfg.dest(r, i)
            if peer in settled:
                pair = (engines[r].sends[i, peer].state, engines[peer].owed[i, r].state)
                if pair not in _SETTLED_PAIRS:
                    bugs.append(("half_divergence", f"round {i} ended {pair[0]} on "
                                 f"its sender rank {r} and {pair[1]} on its "
                                 f"receiver rank {peer}"))
        # Shard size: what stays installed is what the ranks agreed on.
        installed = sum(rf[_STAGED])
        if installed != rf[_COMMITTED]:
            bugs.append(("shard_size", f"rank {r} keeps {installed} received "
                         f"round(s) installed where the agreed commit is "
                         f"{rf[_COMMITTED]}"))
    # Agreement on the committed prefix.
    committed = {ranks_f[r][_COMMITTED] for r in settled}
    if len(committed) > 1:
        bugs.append(
            ("commit_divergence", f"settled ranks disagree on commit: {sorted(committed)}")
        )
    # Round-machine liveness: settled/aborted ranks fully terminal.
    for r, rf in enumerate(ranks_f):
        if rf[_STATUS] not in ("settled", "aborted"):
            continue
        for f in (*engines[r].sends.values(), *engines[r].owed.values()):
            if f.state not in TERMINAL_ROUND_STATES:
                bugs.append(("nonterminal_round", f"rank {r} ended with {f.side} "
                             f"half of round {f.window} in state {f.state!r}"))
    return bugs


def _trace(seen, frozen) -> tuple[str, ...]:
    labels = []
    cur = frozen
    while True:
        parent, label, _depth = seen[cur]
        if parent is None:
            break
        labels.append(label)
        cur = parent
    return tuple(reversed(labels))


def check(
    cfg: CheckConfig,
    *,
    stop_on_violation: bool = False,
    max_violations: int = 25,
) -> CheckResult:
    """Breadth-first exploration of every interleaving under ``cfg``."""
    res = CheckResult(config=cfg)
    model = _Model(cfg, res.coverage)
    init = _initial(model)
    seen = {init: (None, None, 0)}
    frontier = deque([init])
    while frontier:
        frozen = frontier.popleft()
        depth = seen[frozen][2]
        res.states += 1
        statuses = [rf[_STATUS] for rf in frozen[0]]
        if all(s not in _LIVE for s in statuses):
            res.violations.extend(
                Violation(kind, detail, _trace(seen, frozen))
                for kind, detail in _terminal_bugs(model, frozen)
            )
            if stop_on_violation and res.violations:
                return res
            continue
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            res.truncated = True
            continue
        succ = _successors(model, frozen)
        # A step that leaves the state as it was (an event the engine
        # answers with nothing) is no way out.
        if not any(not is_fault and o != frozen for _, is_fault, o in succ):
            res.violations.append(
                Violation(
                    "deadlock",
                    f"non-terminal state with no enabled action (ranks: "
                    f"{statuses})",
                    _trace(seen, frozen),
                )
            )
            if stop_on_violation:
                return res
        for label, _is_fault, outcome in succ:
            res.transitions += 1
            if isinstance(outcome, _Bug):
                res.violations.append(
                    Violation(
                        outcome.kind,
                        outcome.detail,
                        _trace(seen, frozen) + (label,),
                    )
                )
                if stop_on_violation:
                    return res
                continue
            if outcome not in seen:
                seen[outcome] = (frozen, label, depth + 1)
                frontier.append(outcome)
        if len(res.violations) >= max_violations:
            res.truncated = True
            break
    return res


#: The CI matrix: exhaustive M=2 sweeps over the full fault alphabet in
#: both deadline modes (plus a two-round world for partial-commit
#: rollback), a small M=3 world with one death and no deadline (the
#: bystander), and a bounded-depth M=3 world where three-party races (the
#: abort-abort adopt race) live.
DEFAULT_CONFIGS: tuple[CheckConfig, ...] = (
    CheckConfig(
        name="m2-nodeadline",
        size=2,
        rounds=1,
        deadline=False,
        faults=("drop", "dup", "corrupt", "delay", "stale"),
        fault_budget=2,
    ),
    CheckConfig(
        name="m2-deadline",
        size=2,
        rounds=1,
        deadline=True,
        faults=("drop", "dup", "corrupt", "delay", "stale", "kill"),
        fault_budget=2,
    ),
    # The bystander: three ranks, no deadline to hide behind, one death.
    # A survivor whose own frames are settled with the dead rank must still
    # leave the loop when its other peer aborts.
    CheckConfig(
        name="m3-nodeadline-kill",
        size=3,
        rounds=1,
        deadline=False,
        faults=("kill",),
        fault_budget=1,
    ),
    CheckConfig(
        name="m3-deadline",
        size=3,
        rounds=1,
        deadline=True,
        faults=("drop", "corrupt", "kill"),
        fault_budget=2,
        max_depth=14,
    ),
    # Largest state space last: the mutation sweep early-exits on the first
    # counterexample, so every mutant is caught before this config runs.
    CheckConfig(
        name="m2-r2-deadline",
        size=2,
        rounds=2,
        deadline=True,
        faults=("drop", "dup"),
        fault_budget=2,
    ),
)


def check_model(
    configs: tuple[CheckConfig, ...] = DEFAULT_CONFIGS,
    *,
    mutation: str | None = None,
    stop_on_violation: bool = False,
) -> list[CheckResult]:
    """Run every config (optionally with a mutation applied)."""
    results = []
    for cfg in configs:
        cfg = replace(cfg, mutation=mutation, name=f"{cfg.name}" + (f"+{mutation}" if mutation else ""))
        results.append(check(cfg, stop_on_violation=stop_on_violation))
        if stop_on_violation and results[-1].violations:
            break
    return results


def run_mutation_sweep(
    mutations: tuple[str, ...] = tuple(MUTATIONS),
) -> dict[str, Violation | None]:
    """Re-check each seeded mutant against :data:`DEFAULT_CONFIGS`; a
    ``None`` value is a SURVIVOR (bad)."""
    out: dict[str, Violation | None] = {}
    for name in mutations:
        if name not in MUTATIONS:
            raise ValueError(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")
        found = None
        for res in check_model(DEFAULT_CONFIGS, mutation=name, stop_on_violation=True):
            if res.violations:
                found = res.violations[0]
                break
        out[name] = found
    return out


def format_trace(v: Violation, *, indent: str = "  ") -> str:
    lines = [f"{v.kind}: {v.detail}"]
    lines += [f"{indent}{i + 1:>3}. {step}" for i, step in enumerate(v.trace)]
    return "\n".join(lines)
