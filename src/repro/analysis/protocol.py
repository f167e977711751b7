"""Explicit-state model checker for the reliable-exchange protocol.

The scheduler's reliable exchange (CRC/ACK/NACK with bounded resends,
deadline-based degraded-Q commit/rollback, pooled frame buffers that go
back to their sender on ACK) is interleaving-sensitive code:
its unit tests exercise *some* schedules, this module exhaustively explores
*all* of them on small worlds.

The abstract model mirrors the live protocol one-to-one:

* **Round state machine** — a model *round* is one frame each way: every
  rank posts one frame and is owed one, and the two halves advance
  through :data:`repro.shuffle.scheduler.ROUND_TRANSITIONS`, imported
  from the scheduler itself so the checked model and the shipped protocol
  share one transition table and cannot drift silently.  Rounds after the
  first are posted one by one, interleaved with everything else — so an
  ACK is consumed, and its frame reused, while later rounds are unposted.
* **Network** — per ``(src, dst, tag)`` FIFO channels, matching the
  in-process world's per-(source, tag) mailbox ordering.  Control
  channels are loss-free (the chaos engine drops and corrupts *data*
  envelopes only — ``ChaosEngine.plan_message`` gates those faults on
  ``is_data``) but may see duplication and delay-reordering, exactly the
  faults ``scope="all"`` clauses can apply to them.
* **Buffer pool** — a ledger of buffer states (``in_use`` / ``released``
  / ``adopted``) with the live pool's strict double-retire semantics and
  the idempotent ``try_adopt`` used by abort teardown, plus which round's
  samples a buffer holds.  A receiver verifies a frame, then copies it out
  and only then ACKs it; the ACK hands the buffer back to its sender,
  which packs a later round into it or returns it at commit.

Explored faults (budget-bounded): ``drop`` / ``dup`` / ``corrupt`` /
``delay`` (head-to-tail reordering) on channels, ``stale`` injection (a
same-parity envelope from two epochs ago), and ``kill`` (fail-stop rank
death feeding the dead-peer detection path).

Checked invariants:

* no deadlock — every non-terminal state has a non-fault action enabled;
* no buffer leak, double-adopt or double-release — pool operations are
  checked at application time, and every ``in_use`` buffer at a terminal
  state must still be referenced by a dead/failed rank (bytes stranded by
  fail-stop death are the one sanctioned loss);
* no use after release — a receiver never verifies or copies out bytes
  its sender has since packed another round into, and a settled rank
  never keeps a reference (an installed view) to a released buffer;
* the halves of a frame settle alike, and what a settled rank keeps
  installed is exactly the agreed commit (shard size);
* stale messages never commit — a committed payload's epoch must be the
  current epoch;
* agreement — all settled ranks commit the same round count;
* liveness of the round machine — settled/aborted ranks end with every
  round half in :data:`repro.shuffle.scheduler.TERMINAL_ROUND_STATES`.

Alongside the exchange, the checker models the elastic **rejoin JOIN
handshake** (``protocol="join"``): root sends each joiner the job state,
joiners ACK, a barrier separates admission from the rebalance transfers.
Its invariant — no transfer can reach a joiner before its state is
installed — is exactly what the barrier buys, and the
``ack_join_before_barrier`` mutant demonstrates the hole left without it.

**Mutant mode** re-checks seeded protocol mutations (:data:`MUTATIONS`)
— e.g. dropping the ``adopt_if_in_use`` abort-race guard, skipping
``_drain_late_acks``, ACKing a frame before it is copied out — and
requires every one of them to produce at least one counterexample trace.
A surviving mutant means the invariant net has a hole.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.shuffle.scheduler import ROUND_TRANSITIONS, TERMINAL_ROUND_STATES

__all__ = [
    "CheckConfig",
    "CheckResult",
    "Violation",
    "MUTATIONS",
    "MUTATION_PROTOCOL",
    "DEFAULT_CONFIGS",
    "check",
    "check_model",
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
    """One exploration: a protocol, world size, fault alphabet and budget."""

    name: str
    size: int = 2
    #: Exchange protocol: rounds per rank.  Join protocol: joiner count.
    rounds: int = 1
    deadline: bool = False
    faults: tuple[str, ...] = ()
    fault_budget: int = 0
    max_attempts: int = 2
    #: BFS depth bound; ``None`` explores exhaustively.
    max_depth: int | None = None
    mutation: str | None = None
    #: Which protocol model to explore: the reliable ``exchange`` (default)
    #: or the elastic rejoin ``join`` handshake.
    protocol: str = "exchange"

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

    @property
    def ok(self) -> bool:
        return not self.violations


#: Seeded protocol mutations for mutant mode.  Each entry removes one
#: load-bearing line of the real protocol; the checker must produce a
#: counterexample for every one of them.
MUTATIONS: dict[str, str] = {
    "release_before_ack": (
        "sender hands its frame back to the pool right after isend instead "
        "of holding it until the ACK brings it back — returning the held "
        "frames at commit retires it a second time"
    ),
    "skip_drain_late_acks": (
        "commit settlement skips _drain_late_acks, so an ACK posted just "
        "before the receiver's deadline is never seen and the sender books "
        "as reclaimed a frame its receiver commits"
    ),
    "no_adopt_guard": (
        "abort teardown uses strict adopt() instead of the idempotent "
        "try_adopt(), losing the race where both sides of an in-flight "
        "batch (verified, not yet copied out) retire the same buffer"
    ),
    "skip_stale_check": (
        "_handle_data drops the (epoch, round) identity check, letting a "
        "stale same-parity envelope verify and commit"
    ),
    "ack_before_verify": (
        "receiver ACKs on arrival instead of after the CRC check — the "
        "sender takes back, and settles as delivered, a frame whose "
        "receiver never got a valid copy"
    ),
    "ack_before_stage": (
        "receiver ACKs a verified frame first and copies it out after — the "
        "sender packs a later round into bytes still being read"
    ),
    "stage_counts_as_commit": (
        "a verified round beyond the agreed prefix is rolled back without "
        "unstaging its rows — the receiver keeps samples their sender kept "
        "too"
    ),
    "no_timeout_nack": (
        "receiver never NACKs on timeout, so a dropped data message "
        "stalls the exchange forever without a deadline"
    ),
    "forget_rollback_release": (
        "a degraded commit (some round rolled back) skips returning the "
        "frames the sender holds to the pool"
    ),
    "forget_unacked_release": (
        "commit settlement forgets to release un-ACKed send buffers after "
        "the late-ACK drain"
    ),
    "release_under_view": (
        "the sweep installs zero-copy views of a frame instead of copying "
        "the samples out, and still ACKs it — storage reads bytes the "
        "sender reuses and returns to the pool"
    ),
    "dead_peer_filter": (
        "the completion loop raises PeerFailure only for a dead peer of its "
        "own pending or un-ACKed frames — a bystander whose frames involve "
        "no dead rank waits forever on a live peer that already aborted"
    ),
    "ack_join_before_barrier": (
        "a joining rank ACKs its admission immediately instead of after "
        "receiving the handed-over job state, so the admission barrier no "
        "longer orders state delivery before the rebalance transfers — a "
        "shard transfer can land on a joiner with no ledger/capacity state"
    ),
}

#: Which protocol model each mutation perturbs; sweeps only re-check the
#: matching configs (an exchange mutant is invisible to the join model and
#: vice versa, so running the others would only waste states).
MUTATION_PROTOCOL: dict[str, str] = {
    name: ("join" if name == "ack_join_before_barrier" else "exchange")
    for name in MUTATIONS
}


class _Bug(Exception):
    """Raised while applying an action when an invariant breaks there."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


# --------------------------------------------------------------------- state
# A mutable working state; frozen to nested tuples for hashing.  Per-rank
# round record keys (order is the frozen tuple layout):
#   send, recv   -- ROUND_TRANSITIONS states of each half
#   att, nacks   -- resend attempts honoured / NACKs sent
#   sbuf         -- the buffer the sender's frame is out in (until its ACK)
#   rpay         -- the buffer a receiver has verified and not yet copied
#                   out (or views of it installed without a copy-out)
#   pep          -- epoch of the verified payload
#   posted       -- an irecv is outstanding
#   staged       -- the round's rows sit in this rank's storage slots
_RKEYS = ("send", "recv", "att", "nacks", "sbuf", "rpay", "pep", "posted", "staged")
_SBUF, _RPAY, _STAGED = (_RKEYS.index(k) for k in ("sbuf", "rpay", "staged"))
# Per rank: status, agreed prefix / commit, rounds posted so far, the frames
# that came back on ACK and are held for a later round, the round records.
_NKEYS = ("status", "prefix", "committed", "nposted", "free")


class _State:
    __slots__ = ("ranks", "chans", "ledger", "faults_used")

    def __init__(self, ranks, chans, ledger, faults_used):
        self.ranks = ranks          # list of dicts
        self.chans = chans          # dict key -> list of messages
        # bid -> (pool state "in_use"|"released"|"adopted", round whose
        # samples the bytes hold)
        self.ledger = ledger
        self.faults_used = faults_used

    def freeze(self):
        ranks = tuple(
            (
                *(r[k] for k in _NKEYS),
                tuple(tuple(rd[k] for k in _RKEYS) for rd in r["rounds"]),
            )
            for r in self.ranks
        )
        chans = tuple(
            sorted((k, tuple(v)) for k, v in self.chans.items() if v)
        )
        ledger = tuple(sorted(self.ledger.items()))
        return (ranks, chans, ledger, self.faults_used)

    @classmethod
    def thaw(cls, frozen):
        ranks_f, chans_f, ledger_f, faults_used = frozen
        ranks = [
            {**dict(zip(_NKEYS, rf)), "rounds": [dict(zip(_RKEYS, rd)) for rd in rf[-1]]}
            for rf in ranks_f
        ]
        chans = {k: list(v) for k, v in chans_f}
        return cls(ranks, chans, dict(ledger_f), faults_used)


def _initial(cfg: CheckConfig):
    """The state right after every rank posted its first round (send and
    irecv); later rounds are posted one by one, interleaved with the rest."""
    st = _State([], {}, {}, 0)
    for r in range(cfg.size):
        rounds = [
            {
                "send": "inflight", "recv": "waiting", "att": 0, "nacks": 0,
                "sbuf": None, "rpay": None, "pep": None, "posted": False,
                "staged": False,
            }
            for _ in range(cfg.rounds)
        ]
        st.ranks.append(
            {"status": "loop", "prefix": -1, "committed": -1, "nposted": 0,
             "free": (), "rounds": rounds}
        )
    for r in range(cfg.size):
        _apply_post(cfg, st, r)
    return st


# ------------------------------------------------------------------- helpers
def _advance(cov: set, rd: dict, side: str, event: str) -> None:
    state = rd["send"] if side == "send" else rd["recv"]
    new = ROUND_TRANSITIONS.get((side, state, event))
    if new is None:
        raise RuntimeError(
            f"model drift: no transition for ({side}, {state}, {event}) in "
            "ROUND_TRANSITIONS"
        )
    cov.add((side, state, event))
    rd["send" if side == "send" else "recv"] = new


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


def _push(st: _State, chan, msg) -> None:
    st.chans.setdefault(chan, []).append(msg)


def _prefix(rank: dict) -> int:
    n = 0
    for rd in rank["rounds"]:
        if rd["recv"] != "verified":
            break
        n += 1
    return n


def _apply_post(cfg: CheckConfig, st: _State, r: int) -> None:
    """_post_frame + the matched irecv of the rank's next round: pack into a
    frame the rank holds (it came back on an ACK), else into a pool buffer."""
    rank = st.ranks[r]
    i = rank["nposted"]
    rd = rank["rounds"][i]
    if rank["free"]:
        *rest, bid = rank["free"]
        rank["free"] = tuple(rest)
        st.ledger[bid] = (st.ledger[bid][0], i)  # the bytes are round i's now
    else:
        bid = (r, i)
        # Mutant: the frame goes back to the pool right after isend, while
        # the sender still counts on getting it back with the ACK.
        released = cfg.mutation == "release_before_ack"
        st.ledger[bid] = ("released" if released else "in_use", i)
    rd["sbuf"] = bid
    rd["posted"] = True
    rank["nposted"] = i + 1
    _push(st, (r, cfg.dest(r, i), "data", i), (EPOCH, i, bid, True))


def _take_back(cov, rank: dict, rd: dict) -> None:
    """An ACK: the receiver copied the frame out, its buffer is the
    sender's again (live: Scheduler._acked)."""
    _advance(cov, rd, "send", "ack")
    rank["free"] += (rd["sbuf"],)
    rd["sbuf"] = None


def _release_held(st: _State, rank: dict) -> None:
    for bid in rank["free"]:
        _retire(st.ledger, bid, "released", strict=True)
    rank["free"] = ()


def _abort_rank(cov, cfg: CheckConfig, st: _State, r: int) -> None:
    """PeerFailure teardown: cancel, try_adopt the frames still out (and one
    verified but not yet copied out), unstage, release the held frames."""
    rank = st.ranks[r]
    strict = cfg.mutation == "no_adopt_guard"
    for rd in rank["rounds"]:
        if rd["send"] not in TERMINAL_ROUND_STATES:
            _advance(cov, rd, "send", "abort")
        if rd["recv"] not in TERMINAL_ROUND_STATES:
            _advance(cov, rd, "recv", "abort")
        _retire(st.ledger, rd["sbuf"], "adopted", strict=strict)
        rd["sbuf"] = None
        _retire(st.ledger, rd["rpay"], "adopted", strict=strict)
        rd["rpay"] = None
        rd["posted"] = rd["staged"] = False
    _release_held(st, rank)
    rank["status"] = "aborted"


def _settle_rank(cov, cfg: CheckConfig, st: _State, r: int, committed: int) -> None:
    """One rank's _apply_commit: drain, reclaim, return the held frames,
    install or unstage."""
    rank = st.ranks[r]
    mut = cfg.mutation
    if mut != "skip_drain_late_acks":
        # The commit collective is a barrier, so every ACK posted before it
        # is already in our mailbox; late NACKs are dropped.
        for s in range(cfg.size):
            chan = (s, r, "ctrl", 0)
            for kind, ep, idx in st.chans.pop(chan, []):
                if kind != "ack" or ep != EPOCH or not 0 <= idx < cfg.rounds:
                    continue
                rd = rank["rounds"][idx]
                if rd["send"] == "inflight":
                    _take_back(cov, rank, rd)
    for i, rd in enumerate(rank["rounds"]):
        if rd["send"] == "inflight":
            _advance(cov, rd, "send", "reclaim")
            if mut != "forget_unacked_release":
                _retire(st.ledger, rd["sbuf"], "released", strict=True)
            rd["sbuf"] = None
        elif rd["send"] == "acked":
            _advance(cov, rd, "send", "commit" if i < committed else "rollback")
        if rd["recv"] == "verified":
            if i < committed:
                _advance(cov, rd, "recv", "commit")
                if rd["pep"] != EPOCH:
                    raise _Bug(
                        "stale_commit",
                        f"rank {r} committed round {i} with a payload from "
                        f"epoch {rd['pep']} (current epoch {EPOCH})",
                    )
            else:
                _advance(cov, rd, "recv", "rollback")
                if mut != "stage_counts_as_commit":
                    rd["staged"] = False  # unstage
        elif rd["recv"] == "waiting":
            _advance(cov, rd, "recv", "deadline")
            rd["posted"] = False
    if not (mut == "forget_rollback_release" and committed < cfg.rounds):
        _release_held(st, rank)
    rank["status"] = "settled"
    rank["committed"] = committed


# ------------------------------------------------------------------- actions
def _successors(cov, cfg: CheckConfig, frozen):
    """Yield ``(label, is_fault, outcome)`` where outcome is a frozen next
    state or a :class:`_Bug`."""
    out = []

    def act(label, fn, *, fault=False):
        """One enabled action: ``fn`` applied, now, to a copy of the state."""
        st = _State.thaw(frozen)
        try:
            if fault:
                st.faults_used += 1
            fn(st)
        except _Bug as bug:
            out.append((label, fault, bug))
        else:
            out.append((label, fault, st.freeze()))

    ranks_f = frozen[0]
    chans = dict(frozen[1])
    statuses = [rf[0] for rf in ranks_f]
    any_gone = any(s in _GONE for s in statuses)
    # Epochs are in lockstep (the training loop's collective every
    # iteration), so a rank is in synchronize() — timers armed, the deadline
    # checked — only once every rank has posted its last round.
    all_posted = all(rf[3] == cfg.rounds for rf in ranks_f)

    for r in range(cfg.size):
        if statuses[r] != "loop":
            continue
        nposted, rounds_f = ranks_f[r][3], ranks_f[r][-1]

        # Post the next round (live: communicate_chunk, between sweeps — so
        # an ACK may already have brought an earlier round's frame back).
        if nposted < cfg.rounds:
            act(f"rank{r}: post round {nposted}", lambda st: _apply_post(cfg, st, r))

        # Service one control message (live: _service_control drains FIFO).
        for s in range(cfg.size):
            chan = (s, r, "ctrl", 0)
            if chans.get(chan):
                act(f"rank{r}: ctrl from rank{s}",
                    lambda st: _apply_ctrl(cov, cfg, st, r, chan))

        for i in range(cfg.rounds):
            rd = dict(zip(_RKEYS, rounds_f[i]))
            src = cfg.src(r, i)
            dchan = (src, r, "data", i)
            # Deliver the head data message into the posted irecv: verify,
            # copy out, ACK — one sweep, unless a peer failure interrupts it
            # between its two passes.
            if rd["posted"] and chans.get(dchan):
                act(f"rank{r}: data round {i} from rank{src}",
                    lambda st: _apply_data(cov, cfg, st, r, i, dchan))
                if any_gone:
                    def cut_short(st):
                        _apply_data(cov, cfg, st, r, i, dchan, stage=False)
                        _abort_rank(cov, cfg, st, r)

                    act(f"rank{r}: data round {i} from rank{src}, peer failure "
                        "before the copy-out, abort", cut_short)
            # Only a mutant leaves a verified round for a later copy-out.
            if rd["recv"] == "verified" and not rd["staged"]:
                act(f"rank{r}: copy out round {i}", lambda st: _apply_stage(cfg, st, r, i))
            # Timeout NACK: timers run in synchronize() only, and only when
            # no deliverable data is waiting (the live loop sweeps before it
            # looks at them).
            if (
                cfg.mutation != "no_timeout_nack"
                and all_posted
                and rd["recv"] == "waiting"
                and rd["posted"]
                and not chans.get(dchan)
                and rd["nacks"] <= cfg.max_attempts
            ):
                act(f"rank{r}: timeout NACK round {i}",
                    lambda st: _apply_nack(cov, cfg, st, r, i, timed_out=True))

        # Leave the loop (no sweep half done): everything settled, or the
        # deadline expired.
        swept = all_posted and all(
            rf[_STAGED] or rf[1] != "verified" for rf in rounds_f
        )
        if swept and all(rf[0] == "acked" and rf[1] == "verified" for rf in rounds_f):
            act(f"rank{r}: all rounds done, enter commit", lambda st: _apply_exit(st, r))
        elif swept and cfg.deadline:
            act(f"rank{r}: deadline expires", lambda st: _apply_exit(st, r))

        # Dead-peer detection: any gone member of the communicator ends the
        # epoch (live: _raise_on_dead_peers) — the commit collective cannot
        # complete without it, and a live peer that already aborted will
        # never send the ACK or the data this rank would go on waiting for.
        gone = any_gone
        if cfg.mutation == "dead_peer_filter":
            gone = any(
                (rf[0] == "inflight" and statuses[cfg.dest(r, i)] in _GONE)
                or (rf[1] == "waiting" and statuses[cfg.src(r, i)] in _GONE)
                for i, rf in enumerate(rounds_f)
            )
        if gone:
            act(f"rank{r}: peer failure detected, abort",
                lambda st: _abort_rank(cov, cfg, st, r))

    # Commit collective: all ranks arrived -> atomic min-allreduce + settle.
    if all(s == "commit" for s in statuses):
        def commit_all(st):
            committed = min(rank["prefix"] for rank in st.ranks)
            for r in range(cfg.size):
                _settle_rank(cov, cfg, st, r, committed)

        act(f"commit allreduce (all {cfg.size} ranks)", commit_all)
    elif any_gone:
        # A rank blocked in the collective while a peer is dead/failed gets
        # PeerFailure from the rendezvous and aborts.
        for r in range(cfg.size):
            if statuses[r] == "commit":
                act(f"rank{r}: peer failure at commit, abort",
                    lambda st: _abort_rank(cov, cfg, st, r))

    # ------------------------------------------------------------- faults
    if frozen[3] >= cfg.fault_budget:
        return out
    for chan, msgs in chans.items():
        if not msgs:
            continue
        src, dst, kind, i = chan
        where = f"head of {kind}[{src}->{dst},{i}]"
        if "drop" in cfg.faults and kind == "data":
            act(f"fault: drop {where}", lambda st: st.chans[chan].pop(0), fault=True)
        if "corrupt" in cfg.faults and kind == "data" and msgs[0][3]:
            def corrupt(st):
                ep, idx, bid, _ok = st.chans[chan][0]
                st.chans[chan][0] = (ep, idx, bid, False)

            act(f"fault: corrupt {where}", corrupt, fault=True)
        if "dup" in cfg.faults:
            act(f"fault: duplicate {where}",
                lambda st: st.chans[chan].append(st.chans[chan][0]), fault=True)
        if "delay" in cfg.faults and len(msgs) >= 2:
            act(f"fault: delay {where}",
                lambda st: st.chans[chan].append(st.chans[chan].pop(0)), fault=True)
    for r in range(cfg.size):
        if "stale" in cfg.faults and statuses[r] == "loop":
            for i in range(cfg.rounds):
                src = cfg.src(r, i)
                act(f"fault: stale epoch-{STALE_EPOCH} data[{src}->{r},{i}]",
                    lambda st: _push(st, (src, r, "data", i), (STALE_EPOCH, i, None, True)),
                    fault=True)
        if "kill" in cfg.faults and statuses[r] in _LIVE:
            act(f"fault: kill rank{r}",
                lambda st: st.ranks[r].update(status="dead"), fault=True)
    return out


def _apply_ctrl(cov, cfg: CheckConfig, st: _State, r: int, chan) -> None:
    kind, ep, idx = st.chans[chan].pop(0)
    rank = st.ranks[r]
    if ep != EPOCH or not 0 <= idx < rank["nposted"]:
        return  # stale control: discarded by the epoch / frame lookup
    rd = rank["rounds"][idx]
    if kind == "ack":
        if rd["send"] == "inflight":
            _take_back(cov, rank, rd)
        return
    if rd["send"] != "inflight":
        return  # NACK for an already-ACKed round: duplicate, ignore
    rd["att"] += 1
    if rd["att"] > cfg.max_attempts:
        _advance(cov, rd, "send", "nack_overflow")
        rank["status"] = "failed"  # UnrecoveredFaultError
        return
    _advance(cov, rd, "send", "nack")
    _push(st, (r, cfg.dest(r, idx), "data", idx), (EPOCH, idx, rd["sbuf"], True))


def _read(st: _State, r: int, i: int, bid, doing: str) -> None:
    """The use-after-release check where bytes are read: the buffer must
    still hold the round the reader takes it for."""
    holds = st.ledger[bid][1]
    if holds != i:
        raise _Bug(
            "use_after_release",
            f"rank {r} {doing} round {i} from buffer {bid}, which its sender "
            f"has already packed round {holds} into",
        )


def _apply_data(
    cov, cfg: CheckConfig, st: _State, r: int, i: int, chan, *, stage: bool = True
) -> None:
    ep, idx, bid, ok = st.chans[chan].pop(0)
    rd = st.ranks[r]["rounds"][i]
    src = cfg.src(r, i)
    if cfg.mutation != "skip_stale_check" and (ep != EPOCH or idx != i):
        _advance(cov, rd, "recv", "data_stale")
        return  # discarded; the re-posted irecv keeps listening
    if cfg.mutation == "ack_before_verify":
        _push(st, (r, src, "ctrl", 0), ("ack", EPOCH, i))
    if ok:
        if bid is not None:
            _read(st, r, i, bid, "verifies")
        _advance(cov, rd, "recv", "data_ok")
        rd["rpay"] = bid
        rd["pep"] = ep
        rd["posted"] = False
        if cfg.mutation == "ack_before_stage":
            _push(st, (r, src, "ctrl", 0), ("ack", EPOCH, i))
        elif stage:
            _apply_stage(cfg, st, r, i)
    else:
        _apply_nack(cov, cfg, st, r, i, timed_out=False)


def _apply_stage(cfg: CheckConfig, st: _State, r: int, i: int) -> None:
    """The sweep's second pass: copy the verified block into storage
    slots; only then ACK."""
    rd = st.ranks[r]["rounds"][i]
    if rd["rpay"] is not None:
        _read(st, r, i, rd["rpay"], "copies out")
    rd["staged"] = True
    if cfg.mutation != "release_under_view":
        rd["rpay"] = None  # samples copied out: no view remains
    if cfg.mutation not in ("ack_before_verify", "ack_before_stage"):
        _push(st, (r, cfg.src(r, i), "ctrl", 0), ("ack", EPOCH, i))


def _apply_nack(cov, cfg, st: _State, r: int, i: int, *, timed_out: bool) -> None:
    rd = st.ranks[r]["rounds"][i]
    _advance(cov, rd, "recv", "timeout" if timed_out else "data_corrupt")
    rd["nacks"] += 1
    if rd["nacks"] > cfg.max_attempts:
        _advance(cov, rd, "recv", "nack_overflow")
        st.ranks[r]["status"] = "failed"  # UnrecoveredFaultError
        return
    _push(st, (r, cfg.src(r, i), "ctrl", 0), ("nack", EPOCH, i))


def _apply_exit(st: _State, r: int) -> None:
    rank = st.ranks[r]
    rank["status"] = "commit"
    rank["prefix"] = _prefix(rank)


# ------------------------------------------------------------------ checking
#: What the two halves of one frame may end as when both ranks settled.
_SETTLED_PAIRS = {
    ("committed", "committed"), ("rolled_back", "rolled_back"),
    ("reclaimed", "abandoned"),
}


def _terminal_bugs(cfg: CheckConfig, frozen) -> list[tuple[str, str]]:
    """Invariant checks on a terminal state (no live rank remains)."""
    bugs = []
    ranks_f, chans_f, ledger_f, _ = frozen
    # Buffer leak: an in_use buffer not referenced by a dead/failed rank.
    refs_dead = set()
    for rf in ranks_f:
        if rf[0] in _GONE:
            refs_dead.update(rf[4])
            for rd in rf[-1]:
                refs_dead.update((rd[_SBUF], rd[_RPAY]))
    for bid, (state, _holds) in ledger_f:
        if state == "in_use" and bid not in refs_dead:
            bugs.append(("buffer_leak", f"buffer {bid} still in_use at exchange "
                         "end with no dead rank holding it"))
    released = {bid for bid, (state, _holds) in ledger_f if state == "released"}
    settled = [r for r, rf in enumerate(ranks_f) if rf[0] == "settled"]
    for r in settled:
        committed, rounds = ranks_f[r][2], ranks_f[r][-1]
        for i, rd in enumerate(rounds):
            # Use after release: a settled rank still references (installed
            # views of) a buffer that went back to the pool.
            if rd[_RPAY] in released:
                bugs.append(("use_after_release", f"rank {r} still views buffer "
                             f"{rd[_RPAY]} of round {i} after its sender "
                             "released it to the pool"))
            # The two halves of a frame settle alike (so a committed window
            # is committed on its sender too, and an ACK means "verified").
            peer = cfg.dest(r, i)
            pair = (rd[0], ranks_f[peer][-1][i][1])
            if peer in settled and pair not in _SETTLED_PAIRS:
                bugs.append(("half_divergence", f"round {i} ended {pair[0]} on its "
                             f"sender rank {r} and {pair[1]} on its receiver "
                             f"rank {peer}"))
        # Shard size: what stays installed is what the ranks agreed on.
        installed = sum(rd[_STAGED] for rd in rounds)
        if installed != committed:
            bugs.append(("shard_size", f"rank {r} keeps {installed} received "
                         f"round(s) installed where the agreed commit is {committed}"))
    # Agreement on the committed prefix.
    committed = {ranks_f[r][2] for r in settled}
    if len(committed) > 1:
        bugs.append(
            ("commit_divergence", f"settled ranks disagree on commit: {sorted(committed)}")
        )
    # Round-machine liveness: settled/aborted ranks fully terminal.
    for r, rf in enumerate(ranks_f):
        for i, rd in enumerate(rf[-1] if rf[0] in ("settled", "aborted") else ()):
            for side_idx, side in ((0, "send"), (1, "recv")):
                if rd[side_idx] not in TERMINAL_ROUND_STATES:
                    bugs.append(("nonterminal_round", f"rank {r} ended with {side} "
                                 f"half of round {i} in state {rd[side_idx]!r}"))
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


# ------------------------------------------------------- the JOIN handshake
# Abstract model of repro.elastic.rejoin.join_handshake on the expanded
# communicator: the root (lowest surviving member, rank 0 here) sends each
# joiner the handed-over job state on JOIN.tag(0); the joiner ACKs on
# JOIN.tag(1); once every ACK is in, a barrier separates admission from
# the rebalance transfers on JOIN.tag(2+).  The property the barrier buys:
# *no transfer bytes can reach a joiner before its state is installed* —
# a joiner that applies shard bytes without the ledger/capacity state
# would rebuild an inconsistent shard.
#
# Roles in a size-M world with J joiners (cfg.rounds = J): rank 0 is the
# root, the last J ranks are joiners, the rest plain survivors (they only
# participate in the barrier).

_JOIN_PHASES = {
    "root": ("announce", "collect", "barrier", "transfer", "done"),
    "survivor": ("barrier", "done"),
    "joiner": ("await_state", "barrier", "await_xfer", "done"),
}


def _join_roles(cfg: CheckConfig):
    joiners = tuple(range(cfg.size - cfg.rounds, cfg.size))
    if 0 in joiners or not joiners:
        raise ValueError(
            f"join config needs at least one survivor and one joiner "
            f"(size={cfg.size}, joiners={cfg.rounds})"
        )
    return joiners


def _join_initial(cfg: CheckConfig):
    joiners = _join_roles(cfg)
    phases = tuple(
        "await_state" if r in joiners
        else ("announce" if r == 0 else "barrier")
        for r in range(cfg.size)
    )
    installed = tuple(False for _ in joiners)
    sent = tuple(False for _ in joiners)
    acked = tuple(False for _ in joiners)
    xfer_sent = tuple(False for _ in joiners)
    chans: tuple = ()
    return (phases, sent, acked, installed, xfer_sent, chans, 0)


def _join_successors(cov, cfg: CheckConfig, frozen):
    """``(label, is_fault, next_frozen | _Bug)`` for the join model."""
    phases, sent, acked, installed, xfer_sent, chans_f, faults_used = frozen
    joiners = _join_roles(cfg)
    chans = {k: list(v) for k, v in chans_f}
    out = []

    def freeze(phases, sent, acked, installed, xfer_sent, chans, fu):
        return (
            phases, sent, acked, installed, xfer_sent,
            tuple(sorted((k, tuple(v)) for k, v in chans.items() if v)),
            fu,
        )

    def push(ch, chan, msg):
        ch = {k: list(v) for k, v in ch.items()}
        ch.setdefault(chan, []).append(msg)
        return ch

    def pop(ch, chan):
        ch = {k: list(v) for k, v in ch.items()}
        msg = ch[chan].pop(0)
        return ch, msg

    def setat(tup, idx, value):
        return tup[:idx] + (value,) + tup[idx + 1:]

    # Root sends the job state to each joiner, one action per joiner.
    if phases[0] == "announce":
        for ji, j in enumerate(joiners):
            if sent[ji]:
                continue
            cov.add(("join-root", "announce", f"state->j{ji}"))
            new_sent = setat(sent, ji, True)
            new_phase = "collect" if all(new_sent) else "announce"
            out.append(
                (
                    f"root: send state to joiner {j}",
                    False,
                    freeze(
                        setat(phases, 0, new_phase), new_sent, acked,
                        installed, xfer_sent,
                        push(chans, (0, j, "state"), "state"), faults_used,
                    ),
                )
            )

    # Root collects one ACK.
    if phases[0] == "collect":
        for ji, j in enumerate(joiners):
            chan = (j, 0, "ack")
            if not chans.get(chan):
                continue
            cov.add(("join-root", "collect", f"ack<-j{ji}"))
            ch, _msg = pop(chans, chan)
            new_acked = setat(acked, ji, True)
            new_phase = "barrier" if all(new_acked) else "collect"
            out.append(
                (
                    f"root: ACK from joiner {j}",
                    False,
                    freeze(
                        setat(phases, 0, new_phase), sent, new_acked,
                        installed, xfer_sent, ch, faults_used,
                    ),
                )
            )

    # Joiner receives the state (its sole blocking recv in the real
    # handshake; the model also allows late delivery after the mutant let
    # it run ahead).
    for ji, j in enumerate(joiners):
        chan = (0, j, "state")
        if chans.get(chan):
            ch, _msg = pop(chans, chan)
            new_installed = setat(installed, ji, True)
            if phases[j] == "await_state":
                cov.add(("join-joiner", "await_state", "state"))
                out.append(
                    (
                        f"joiner {j}: receive state, ACK",
                        False,
                        freeze(
                            setat(phases, j, "barrier"), sent, acked,
                            new_installed, xfer_sent,
                            push(ch, (j, 0, "ack"), "ack"), faults_used,
                        ),
                    )
                )
            else:
                cov.add(("join-joiner", phases[j], "late_state"))
                out.append(
                    (
                        f"joiner {j}: late state delivery",
                        False,
                        freeze(
                            phases, sent, acked, new_installed,
                            xfer_sent, ch, faults_used,
                        ),
                    )
                )
        # The seeded mutation: ACK admission without waiting for the state.
        if cfg.mutation == "ack_join_before_barrier" and phases[j] == "await_state":
            cov.add(("join-joiner", "await_state", "early_ack"))
            out.append(
                (
                    f"joiner {j}: ACK before receiving state (mutant)",
                    False,
                    freeze(
                        setat(phases, j, "barrier"), sent, acked,
                        installed, xfer_sent,
                        push(chans, (j, 0, "ack"), "ack"), faults_used,
                    ),
                )
            )

    # The admission barrier: everyone arrived -> collective release.
    if all(
        p == "barrier" for p in phases
    ):
        cov.add(("join-all", "barrier", "release"))
        new_phases = tuple(
            "transfer" if r == 0
            else ("await_xfer" if r in joiners else "done")
            for r in range(cfg.size)
        )
        out.append(
            (
                f"barrier (all {cfg.size} members)",
                False,
                freeze(
                    new_phases, sent, acked, installed, xfer_sent,
                    chans, faults_used,
                ),
            )
        )

    # Root posts the rebalance transfers (one per joiner), then is done.
    if phases[0] == "transfer":
        for ji, j in enumerate(joiners):
            if xfer_sent[ji]:
                continue
            cov.add(("join-root", "transfer", f"xfer->j{ji}"))
            new_xs = setat(xfer_sent, ji, True)
            new_phase = "done" if all(new_xs) else "transfer"
            out.append(
                (
                    f"root: rebalance transfer to joiner {j}",
                    False,
                    freeze(
                        setat(phases, 0, new_phase), sent, acked,
                        installed, new_xs,
                        push(chans, (0, j, "xfer"), "xfer"), faults_used,
                    ),
                )
            )

    # Joiner applies a transfer — THE checked property lives here.
    for ji, j in enumerate(joiners):
        chan = (0, j, "xfer")
        if phases[j] == "await_xfer" and chans.get(chan):
            if not installed[ji]:
                out.append(
                    (
                        f"joiner {j}: apply transfer WITHOUT state",
                        False,
                        _Bug(
                            "transfer_before_state",
                            f"joiner {j} applied a rebalance transfer before "
                            "its handed-over job state arrived — the barrier "
                            "no longer separates admission from transfers",
                        ),
                    )
                )
                continue
            cov.add(("join-joiner", "await_xfer", "xfer"))
            ch, _msg = pop(chans, chan)
            out.append(
                (
                    f"joiner {j}: apply transfer",
                    False,
                    freeze(
                        setat(phases, j, "done"), sent, acked, installed,
                        xfer_sent, ch, faults_used,
                    ),
                )
            )

    # Faults: duplication and delay-reordering on populated channels (the
    # in-process JOIN channels are loss-free, like the control plane).
    if faults_used < cfg.fault_budget:
        for chan, msgs in chans.items():
            if not msgs:
                continue
            if "dup" in cfg.faults:
                out.append(
                    (
                        f"fault: duplicate head of {chan}",
                        True,
                        freeze(
                            phases, sent, acked, installed, xfer_sent,
                            push(chans, chan, msgs[0]), faults_used + 1,
                        ),
                    )
                )
            if "delay" in cfg.faults and len(msgs) >= 2:
                ch = {k: list(v) for k, v in chans.items()}
                ch[chan] = ch[chan][1:] + ch[chan][:1]
                out.append(
                    (
                        f"fault: delay head of {chan}",
                        True,
                        freeze(
                            phases, sent, acked, installed, xfer_sent,
                            ch, faults_used + 1,
                        ),
                    )
                )
    return out


def _join_terminal_bugs(cfg: CheckConfig, frozen) -> list[tuple[str, str]]:
    phases, _sent, acked, installed, _xs, chans_f, _fu = frozen
    joiners = _join_roles(cfg)
    bugs = []
    for ji, j in enumerate(joiners):
        if not installed[ji]:
            bugs.append(
                (
                    "joiner_without_state",
                    f"joiner {j} finished the handshake without ever "
                    "receiving the handed-over job state",
                )
            )
        if not acked[ji]:
            bugs.append(
                ("missing_ack", f"root finished without joiner {j}'s ACK")
            )
    return bugs


def _check_join(
    cfg: CheckConfig, *, stop_on_violation: bool, max_violations: int
) -> CheckResult:
    """BFS over the join-handshake model (same harness shape as check())."""
    res = CheckResult(config=cfg)
    cov = res.coverage
    init = _join_initial(cfg)
    seen = {init: (None, None, 0)}
    frontier = deque([init])
    while frontier:
        frozen = frontier.popleft()
        depth = seen[frozen][2]
        res.states += 1
        phases = frozen[0]
        if all(p == "done" for p in phases):
            res.violations.extend(
                Violation(kind, detail, _trace(seen, frozen))
                for kind, detail in _join_terminal_bugs(cfg, frozen)
            )
            if stop_on_violation and res.violations:
                return res
            continue
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            res.truncated = True
            continue
        succ = _join_successors(cov, cfg, frozen)
        if not any(not is_fault for _, is_fault, _o in succ):
            res.violations.append(
                Violation(
                    "deadlock",
                    f"non-terminal join state with no enabled action "
                    f"(phases: {list(phases)})",
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


def check(
    cfg: CheckConfig,
    *,
    stop_on_violation: bool = False,
    max_violations: int = 25,
) -> CheckResult:
    """Breadth-first exploration of every interleaving under ``cfg``."""
    if cfg.protocol == "join":
        return _check_join(
            cfg,
            stop_on_violation=stop_on_violation,
            max_violations=max_violations,
        )
    if cfg.protocol != "exchange":
        raise ValueError(f"unknown protocol {cfg.protocol!r}")
    res = CheckResult(config=cfg)
    cov = res.coverage
    init = _initial(cfg).freeze()
    seen = {init: (None, None, 0)}
    frontier = deque([init])
    while frontier:
        frozen = frontier.popleft()
        depth = seen[frozen][2]
        res.states += 1
        statuses = [rf[0] for rf in frozen[0]]
        if all(s not in _LIVE for s in statuses):
            res.violations.extend(
                Violation(kind, detail, _trace(seen, frozen))
                for kind, detail in _terminal_bugs(cfg, frozen)
            )
            if stop_on_violation and res.violations:
                return res
            continue
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            res.truncated = True
            continue
        succ = _successors(cov, cfg, frozen)
        if not any(not is_fault for _, is_fault, _o in succ):
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
    # Tiny state space first: the elastic rejoin admission handshake
    # (root + one survivor + one joiner, dup/delay on the loss-free JOIN
    # channels).
    CheckConfig(
        name="join-handshake",
        protocol="join",
        size=3,
        rounds=1,
        faults=("dup", "delay"),
        fault_budget=1,
    ),
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
    """Run every config (optionally with a mutation applied).

    With a mutation, only configs of the protocol the mutation perturbs
    are re-checked (:data:`MUTATION_PROTOCOL`) — the others cannot
    observe it and would report a meaningless clean pass.
    """
    results = []
    for cfg in configs:
        if mutation is not None and cfg.protocol != MUTATION_PROTOCOL[mutation]:
            continue
        cfg = replace(cfg, mutation=mutation, name=f"{cfg.name}" + (f"+{mutation}" if mutation else ""))
        results.append(check(cfg, stop_on_violation=stop_on_violation))
        if stop_on_violation and results[-1].violations:
            break
    return results


def run_mutation_sweep(
    configs: tuple[CheckConfig, ...] = DEFAULT_CONFIGS,
    mutations: tuple[str, ...] = tuple(MUTATIONS),
) -> dict[str, Violation | None]:
    """Re-check each seeded mutant; a ``None`` value is a SURVIVOR (bad)."""
    out: dict[str, Violation | None] = {}
    for name in mutations:
        if name not in MUTATIONS:
            raise ValueError(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")
        found = None
        for res in check_model(configs, mutation=name, stop_on_violation=True):
            if res.violations:
                found = res.violations[0]
                break
        out[name] = found
    return out


def format_trace(v: Violation, *, indent: str = "  ") -> str:
    lines = [f"{v.kind}: {v.detail}"]
    lines += [f"{indent}{i + 1:>3}. {step}" for i, step in enumerate(v.trace)]
    return "\n".join(lines)
