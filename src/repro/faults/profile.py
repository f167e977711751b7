"""The chaos-profile spec: what to inject, where, how often.

Grammar (clauses joined by ``;``)::

    profile  := clause (";" clause)*
    clause   := kind [":" param ("," param)*] ["@" scope]
    param    := name "=" value

    corrupt:p=0.01@exchange     flip one byte of 1% of exchange payloads
    drop:p=0.01                 lose 1% of exchange payloads outright
    delay:p=0.02,ms=50          deliver 2% of messages 50 ms late
    dup:p=0.01                  deliver 1% of messages twice
    flaky-read:p=0.05           5% of storage reads raise OSError
    torn-read:p=0.02            2% of storage reads raise ValueError
    slow:rank=3,x=10            rank 3 pays 10 slow-units per message sent
    kill:rank=1,epoch=2         fail-stop at epoch 2's start (point=begin,
                                mid_exchange or end picks the moment)
    rejoin:rank=1,epoch=4       the killed rank rejoins at epoch 4's start
    crash:epoch=3               whole-job fail-stop before epoch 3 (the
                                supervisor restarts from epoch 2's snapshot)

The ``kill`` / ``rejoin`` / ``crash`` clauses are the failure schedule of
:func:`repro.elastic.run_lifecycle`; :class:`FaultProfile` answers its
queries (:meth:`~FaultProfile.check`, :meth:`~FaultProfile.joiners_at`, ...)
and validates it when it is built: a rank killed twice or at an unknown
point, a rejoin of a rank that never died or not after its death, and a
crash at epoch 0 (no snapshot to restart from) are rejected.
:meth:`~FaultProfile.check_run` rejects a schedule that does not fit the
run: an event past its last epoch, or a kill of a rank it does not have.

Optional on any message kind: ``epochs=a`` or ``epochs=a-b`` restricts the
clause to those exchange epochs.  ``@scope`` narrows which messages a
``delay``/``dup`` clause may hit: ``exchange`` (checksummed data-plane
payloads), ``control`` (everything else, incl. ACK/NACK), or ``all``
(default).  ``corrupt`` and ``drop`` are *forced* to the data plane: the
control plane is modeled reliable, because dropping ACKs/NACKs would void
the resend protocol's termination guarantee (real transports put control
traffic on a reliable channel for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.errors import RankDied

__all__ = [
    "FaultClause", "FaultProfile", "KINDS", "LIFECYCLE_KINDS", "POINTS", "SCOPES",
]

#: Recognised clause kinds, grouped by the subsystem they perturb.
MESSAGE_KINDS = ("corrupt", "drop", "delay", "dup", "slow")
STORAGE_KINDS = ("flaky-read", "torn-read")
#: Fail-stop / lifecycle kinds: the schedule of ``elastic.run_lifecycle``.
LIFECYCLE_KINDS = ("kill", "rejoin", "crash")
KINDS = MESSAGE_KINDS + STORAGE_KINDS + LIFECYCLE_KINDS

SCOPES = ("exchange", "control", "all")

#: Kill points within an epoch, in execution order: ``begin`` fires before
#: the epoch's first collective, ``mid_exchange`` halfway through the
#: training iterations (while exchange chunks are in flight), ``end`` after
#: the last iteration but before the exchange completes.
POINTS = ("begin", "mid_exchange", "end")

#: Which parameters each kind accepts (None means required-less default).
_PARAMS = {
    "corrupt": {"p", "epochs"},
    "drop": {"p", "epochs"},
    "delay": {"p", "ms", "epochs"},
    "dup": {"p", "epochs"},
    "slow": {"rank", "x", "epochs"},
    "flaky-read": {"p"},
    "torn-read": {"p"},
    "kill": {"rank", "epoch", "point"},
    "rejoin": {"rank", "epoch"},
    "crash": {"epoch"},
}


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a chaos profile."""

    kind: str
    p: float = 0.0
    rank: int | None = None
    x: float | None = None
    ms: float | None = None
    epochs: tuple[int, int] | None = None
    scope: str = "all"
    epoch: int | None = None
    point: str = "begin"

    def active(self, epoch: int) -> bool:
        """Whether this clause applies during exchange epoch ``epoch``."""
        return self.epochs is None or self.epochs[0] <= epoch <= self.epochs[1]


def _parse_value(name: str, value: str, clause: str):
    try:
        if name in ("rank", "epoch"):
            return int(value)
        if name == "epochs":
            lo, dash, hi = value.partition("-")
            lo_i = int(lo)
            hi_i = int(hi) if dash else lo_i
            if hi_i < lo_i:
                raise ValueError
            return (lo_i, hi_i)
        if name == "point":
            return value
        return float(value)
    except ValueError:
        raise ValueError(f"bad value {value!r} for {name!r} in clause {clause!r}") from None


def _parse_clause(text: str) -> FaultClause:
    body, at, scope = text.partition("@")
    kind, colon, params_s = body.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        raise ValueError(f"unknown fault kind {kind!r} (known: {', '.join(KINDS)})")
    allowed = _PARAMS[kind]
    fields: dict = {"kind": kind}
    for param in filter(None, (p.strip() for p in params_s.split(","))):
        name, eq, value = param.partition("=")
        if not eq or name not in allowed:
            raise ValueError(
                f"clause {text!r}: parameter {name!r} not valid for {kind!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        fields[name] = _parse_value(name, value, text)

    # Scope handling: corrupt/drop are pinned to the data plane.
    if kind in ("corrupt", "drop"):
        scope = scope.strip() or "exchange"
        if scope != "exchange":
            raise ValueError(
                f"clause {text!r}: {kind} is data-plane only (@exchange); the "
                "ACK/NACK control plane is modeled reliable"
            )
    elif kind in ("delay", "dup"):
        scope = scope.strip() or "all"
        if scope not in SCOPES:
            raise ValueError(f"clause {text!r}: scope must be one of {SCOPES}")
    elif at:
        raise ValueError(f"clause {text!r}: {kind!r} does not take a scope")
    else:
        scope = "all"
    fields["scope"] = scope

    # Per-kind requirements.
    if kind in ("corrupt", "drop", "delay", "dup") + STORAGE_KINDS:
        p = fields.get("p")
        if p is None or not 0.0 < p <= 1.0:
            raise ValueError(f"clause {text!r}: needs p in (0, 1]")
    if kind == "slow":
        if fields.get("rank") is None:
            raise ValueError(f"clause {text!r}: slow needs rank=<r>")
        fields.setdefault("x", 10.0)
    if kind == "delay":
        fields.setdefault("ms", 20.0)
    if kind in ("kill", "rejoin"):
        if fields.get("rank") is None or fields.get("epoch") is None:
            raise ValueError(f"clause {text!r}: {kind} needs rank=<r>,epoch=<e>")
    if kind == "crash" and fields.get("epoch") is None:
        raise ValueError(f"clause {text!r}: crash needs epoch=<e>")
    return FaultClause(**fields)


class FaultProfile:
    """An ordered collection of :class:`FaultClause`\\ s.

    Its ``kill`` / ``rejoin`` / ``crash`` clauses are also read as the
    failure schedule: ``kills`` are ``(rank, epoch, point)`` fail-stops,
    ``rejoins`` ``(rank, epoch)`` re-admissions at a later epoch's start,
    and ``crashes`` the epochs at whose start the whole job dies (the
    restart resumes from the previous epoch's snapshot).
    """

    def __init__(self, clauses: tuple[FaultClause, ...] = ()) -> None:
        self.clauses = tuple(clauses)
        self.kills = tuple((c.rank, c.epoch, c.point) for c in self.by_kind("kill"))
        self.rejoins = tuple(sorted((c.rank, c.epoch) for c in self.by_kind("rejoin")))
        self.crashes = tuple(sorted({c.epoch for c in self.by_kind("crash")}))
        self._validate_schedule()

    def _validate_schedule(self) -> None:
        kill_epoch: dict[int, int] = {}
        for rank, epoch, point in self.kills:
            if rank < 0 or epoch < 0:
                raise ValueError(
                    f"kill rank and epoch must be >= 0, got rank {rank} "
                    f"epoch {epoch}"
                )
            if point not in POINTS:
                raise ValueError(f"point must be one of {POINTS}, got {point!r}")
            if rank in kill_epoch:
                raise ValueError(f"rank {rank} scheduled to die twice")
            kill_epoch[rank] = epoch
        seen: set[int] = set()
        for rank, epoch in self.rejoins:
            if rank in seen:
                raise ValueError(f"rank {rank} scheduled to rejoin twice")
            seen.add(rank)
            if rank not in kill_epoch:
                raise ValueError(
                    f"rank {rank} rejoins at epoch {epoch} but is never killed"
                )
            if epoch <= kill_epoch[rank]:
                raise ValueError(
                    f"rank {rank} rejoins at epoch {epoch} but only dies at "
                    f"epoch {kill_epoch[rank]}; rejoin must come later"
                )
        for c in self.crashes:
            if c < 1:
                raise ValueError(
                    f"crash epoch must be >= 1 (epoch {c} has no prior "
                    "snapshot to restart from)"
                )

    @classmethod
    def parse(cls, spec: str) -> "FaultProfile":
        """Parse a ``;``-joined profile spec (empty string -> no faults)."""
        return cls(
            tuple(
                _parse_clause(part)
                for part in filter(None, (p.strip() for p in spec.split(";")))
            )
        )

    def by_kind(self, *kinds: str) -> tuple[FaultClause, ...]:
        """Clauses of the given kinds, in spec order."""
        return tuple(c for c in self.clauses if c.kind in kinds)

    def transient(self) -> "FaultProfile":
        """The profile minus fail-stop/lifecycle clauses (kill, rejoin,
        crash) — the faults the message/storage injectors handle inline."""
        return FaultProfile(
            tuple(c for c in self.clauses if c.kind not in LIFECYCLE_KINDS)
        )

    @property
    def has_message_faults(self) -> bool:
        """Whether any clause perturbs message delivery."""
        return bool(self.by_kind(*MESSAGE_KINDS))

    @property
    def has_storage_faults(self) -> bool:
        """Whether any clause perturbs storage reads."""
        return bool(self.by_kind(*STORAGE_KINDS))

    # ------------------------------------------------------ the failure schedule
    def joiners_at(self, epoch: int) -> tuple[int, ...]:
        """World ranks scheduled to rejoin at ``epoch``'s boundary."""
        return tuple(sorted(r for r, e in self.rejoins if e == epoch))

    def rejoin_epoch(self, rank: int) -> int | None:
        """When ``rank`` rejoins, or ``None`` if it stays dead."""
        return next((e for r, e in self.rejoins if r == rank), None)

    def check(self, rank: int, epoch: int, point: str) -> None:
        """Raise :class:`RankDied` if the schedule kills ``rank`` here."""
        if (rank, epoch, point) in self.kills:
            raise RankDied(
                f"injected fault: rank {rank} at epoch {epoch} ({point})"
            )

    def dead_forever(self) -> tuple[int, ...]:
        """Ranks the schedule kills and never brings back."""
        return tuple(
            r for r, _e, _p in self.kills if self.rejoin_epoch(r) is None
        )

    def max_epoch(self) -> int:
        """Largest epoch any scheduled event touches (-1 when empty)."""
        epochs = [e for _r, e, _p in self.kills]
        epochs += [e for _, e in self.rejoins]
        epochs += list(self.crashes)
        return max(epochs, default=-1)

    def check_run(self, epochs: int, workers: int) -> None:
        """Raise ``ValueError`` unless the schedule fits a run of ``epochs``
        epochs on ``workers`` ranks: every event falls in an epoch the run
        has, and every kill / rejoin names one of its ranks (a rejoin names a
        killed rank, so checking the kills covers both)."""
        if self.max_epoch() >= epochs:
            raise ValueError(
                f"fault profile touches epoch {self.max_epoch()} but "
                f"the run only has {epochs} epochs"
            )
        for rank, _e, _p in self.kills:
            if rank >= workers:
                raise ValueError(
                    f"fault profile names rank {rank} but the run only has "
                    f"{workers} workers"
                )
