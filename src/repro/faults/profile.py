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

__all__ = ["FaultClause", "FaultProfile", "KINDS", "LIFECYCLE_KINDS", "SCOPES"]

#: Recognised clause kinds, grouped by the subsystem they perturb.
MESSAGE_KINDS = ("corrupt", "drop", "delay", "dup", "slow")
STORAGE_KINDS = ("flaky-read", "torn-read")
#: Fail-stop / lifecycle kinds, consumed by ``elastic.LifecyclePlan``.
LIFECYCLE_KINDS = ("kill", "rejoin", "crash")
KINDS = MESSAGE_KINDS + STORAGE_KINDS + LIFECYCLE_KINDS

SCOPES = ("exchange", "control", "all")

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
    """An ordered collection of :class:`FaultClause`\\ s."""

    def __init__(self, clauses: tuple[FaultClause, ...] = ()) -> None:
        self.clauses = tuple(clauses)

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

    def lifecycle_plan(self):
        """The kill, rejoin and crash clauses as an ``elastic.LifecyclePlan``
        — validation (a rank killed twice, an unknown point, every rejoin
        naming a killed rank and coming after its death, crash epochs with
        a prior snapshot) happens in the plan's constructor."""
        from repro.elastic.lifecycle import LifecyclePlan

        return LifecyclePlan(
            kills=tuple((c.rank, c.epoch, c.point) for c in self.by_kind("kill")),
            rejoins=tuple((c.rank, c.epoch) for c in self.by_kind("rejoin")),
            crashes=tuple(c.epoch for c in self.by_kind("crash")),
        )

    @property
    def has_message_faults(self) -> bool:
        """Whether any clause perturbs message delivery."""
        return bool(self.by_kind(*MESSAGE_KINDS))

    @property
    def has_storage_faults(self) -> bool:
        """Whether any clause perturbs storage reads."""
        return bool(self.by_kind(*STORAGE_KINDS))
