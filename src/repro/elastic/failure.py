"""Deterministic failure injection for elastic-training tests and benchmarks.

A :class:`FailurePlan` is a schedule of simulated node crashes: *kill world
rank r at epoch e*, optionally pinned to a point within the epoch.  The
lifecycle worker consults the plan at each injection point; a matching event
raises :class:`~repro.mpi.errors.RankDied`, which the launcher records as a
non-fatal death (the epitaph channel) so the survivors can detect it, shrink
and recover.

Plans parse from a compact spec::

    1@2                      kill rank 1 at the start of epoch 2
    1@2:mid_exchange         ... midway through epoch 2's overlapped exchange
    0@1,2@3:end              two failures
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.mpi.errors import RankDied

__all__ = ["FailureEvent", "FailurePlan", "POINTS"]

#: Injection points within an epoch, in execution order: ``begin`` fires
#: before the epoch's first collective, ``mid_exchange`` halfway through the
#: training iterations (while exchange chunks are in flight), ``end`` after
#: the last iteration but before the exchange completes.
POINTS = ("begin", "mid_exchange", "end")


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled crash: world rank ``rank`` dies at ``epoch``/``point``."""

    rank: int
    epoch: int
    point: str = "begin"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if self.point not in POINTS:
            raise ValueError(f"point must be one of {POINTS}, got {self.point!r}")


class FailurePlan:
    """An ordered collection of :class:`FailureEvent`\\ s."""

    def __init__(self, events: Iterable[FailureEvent] = ()) -> None:
        self.events: tuple[FailureEvent, ...] = tuple(events)
        seen = set()
        for ev in self.events:
            if ev.rank in seen:
                raise ValueError(f"rank {ev.rank} scheduled to die twice")
            seen.add(ev.rank)

    @classmethod
    def parse(cls, spec: str) -> "FailurePlan":
        """Parse ``"rank@epoch[:point][,...]"`` (empty string -> no events)."""
        events = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            head, _, point = part.partition(":")
            rank_s, at, epoch_s = head.partition("@")
            if not at:
                raise ValueError(
                    f"bad failure spec {part!r}: expected rank@epoch[:point]"
                )
            events.append(
                FailureEvent(
                    rank=int(rank_s), epoch=int(epoch_s), point=point or "begin"
                )
            )
        return cls(events)

    def check(self, world_rank: int, epoch: int, point: str) -> None:
        """Raise :class:`RankDied` if the plan kills ``world_rank`` here."""
        for ev in self.events:
            if ev.rank == world_rank and ev.epoch == epoch and ev.point == point:
                raise RankDied(
                    f"injected fault: rank {world_rank} at epoch {epoch} "
                    f"({point})"
                )

    def doomed(self) -> Sequence[int]:
        """World ranks the plan eventually kills."""
        return tuple(ev.rank for ev in self.events)
