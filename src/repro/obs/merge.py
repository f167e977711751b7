"""Cross-rank analysis of the event stream: merging, phase totals, bytes.

Every rank stamps its events with ``time.perf_counter`` (one monotonic
clock for rank threads and forked rank processes alike), so the streams
are directly comparable: a merge is a stable sort by timestamp with rank
attribution intact.  On top of the merged timeline this module derives the
paper's empirical objects, each a view over event kinds:

* :func:`phase_totals` — the Figure 10 accounting (I/O, EXCHANGE, FW+BW,
  GE+WU) over the ``phase.<name>`` regions a traced run records; summing
  an epoch's regions reproduces the ``epoch.phases`` totals the trainer
  records and pushes every epoch, which an untraced stream falls back to.
* :func:`overlap_report` — the Figure 4 question: how much of the PLS
  exchange was posted *under* the training iterations (overlap frames)
  versus blocking at the epoch boundary (``mode`` of ``round.post``).
* :func:`bytes_by_rank` — the §III-B communication volumes, from the
  ``nbytes`` the communicator and the scheduler attach to what they move.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from typing import Iterable, Sequence

from .telemetry.flight import Event, FlightLog, rank_streams

__all__ = [
    "merge_ranks",
    "phase_totals",
    "phase_totals_by_rank",
    "bytes_by_rank",
    "overlap_report",
    "service_report",
]

#: Kind prefix of the Figure-10 phase regions.
PHASE_PREFIX = "phase."

#: Canonical Figure 10 phase order.
PHASE_ORDER = ("io", "exchange", "fw_bw", "ge_wu")

#: Kind prefixes of a run's lifecycle transitions — kill, shrink, degraded
#: continue, checkpoint, crash, restart, rejoin, rebalance: the timeline
#: ``repro trace`` prints and ``LifecycleResult.events`` holds.
LIFECYCLE_PREFIXES = ("lifecycle.", "elastic.", "rank.")


def merge_ranks(
    source: FlightLog | dict | Sequence[Iterable[Event] | None],
) -> list[Event]:
    """Merge per-rank event streams into one timestamp-ordered timeline.

    ``source`` is a run's :class:`FlightLog` (``result.world.flight``), a
    flight dump, or per-rank :class:`Event` iterables; the sort is stable
    and keyed by ``(ts, rank, kind)`` so merging the same run twice yields
    the same sequence (determinism is what the tests pin down).

    Degrades rather than raises on damaged input: a ``None`` stream (a rank
    that died before leaving one) is skipped, and events with non-finite or
    negative timestamps/durations (clock skew, corrupted rows) are dropped
    — each with one warning naming what was lost.
    """
    if isinstance(source, FlightLog):
        source = [[Event(*ev, rec.rank) for ev in rec] for rec in source.recorders]
    elif isinstance(source, dict):
        source = rank_streams(source)
    events: list[Event] = []
    missing = 0
    for stream in source:
        if stream is None:
            missing += 1
            continue
        events.extend(stream)
    kept = [
        ev for ev in events
        if math.isfinite(ev.ts) and math.isfinite(ev.dur)
        and ev.ts >= 0.0 and ev.dur >= 0.0
    ]
    if missing:
        warnings.warn(
            f"merge_ranks: skipped {missing} missing rank stream(s)",
            RuntimeWarning,
            stacklevel=2,
        )
    if len(kept) != len(events):
        warnings.warn(
            f"merge_ranks: dropped {len(events) - len(kept)} event(s) with "
            "non-finite or negative timestamps",
            RuntimeWarning,
            stacklevel=2,
        )
    kept.sort(key=lambda ev: (ev.ts, ev.rank, ev.kind))
    return kept


def phase_totals_by_rank(events: Iterable[Event]) -> dict[int, dict[str, float]]:
    """Per-rank seconds per phase: ``{rank: {phase: seconds}}``, summed
    over the ``phase.<name>`` regions — or, for a stream recorded untraced
    (no region in it at all), over the always-on ``epoch.phases`` totals."""
    regions: dict[int, dict[str, float]] = defaultdict(dict)
    epochs: dict[int, dict[str, float]] = defaultdict(dict)
    for ev in events:
        if ev.kind.startswith(PHASE_PREFIX):
            row, name = regions[ev.rank], ev.kind[len(PHASE_PREFIX):]
            row[name] = row.get(name, 0.0) + ev.dur
        elif ev.kind == "epoch.phases":
            row = epochs[ev.rank]
            for name, seconds in ev.fields.items():
                if name != "epoch":
                    row[name] = row.get(name, 0.0) + seconds
    return dict(regions or epochs)


def phase_totals(events: Iterable[Event]) -> dict[str, float]:
    """Total seconds per phase name over all ranks — the trace-side
    definition of the Figure 10 breakdown."""
    totals: dict[str, float] = {}
    for per in phase_totals_by_rank(events).values():
        for name, seconds in per.items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def bytes_by_rank(events: Iterable[Event]) -> dict[int, dict[str, int]]:
    """Bytes moved per rank, split by traffic class.

    ``p2p_sent`` sums the ``nbytes`` of ``p2p.isend`` and of the exchange's
    own ``round.post`` (whose wire operation runs suspended, so a frame is
    counted once, in logical sample bytes); ``p2p_recv`` the received
    payloads of ``p2p.recv`` / ``p2p.irecv.wait`` and the ``recv_nbytes``
    an ``epoch.commit`` installed; ``coll_contrib`` each ``coll.<op>``
    contribution.
    """
    out: dict[int, dict[str, int]] = defaultdict(
        lambda: {"p2p_sent": 0, "p2p_recv": 0, "coll_contrib": 0}
    )
    for ev in events:
        kind, fields = ev.kind, ev.fields
        if kind in ("p2p.isend", "round.post"):
            out[ev.rank]["p2p_sent"] += int(fields.get("nbytes", 0))
        elif kind in ("p2p.recv", "p2p.irecv.wait"):
            out[ev.rank]["p2p_recv"] += int(fields.get("nbytes", 0))
        elif kind == "epoch.commit":
            out[ev.rank]["p2p_recv"] += int(fields.get("recv_nbytes", 0))
        elif kind.startswith("coll."):
            out[ev.rank]["coll_contrib"] += int(fields.get("nbytes", 0))
    return dict(out)


def overlap_report(events: Iterable[Event]) -> dict[int, dict[str, float]]:
    """Per-rank Figure 4 attribution of the PLS exchange.

    For each rank returns::

        {
          "exchange_s":        total seconds in exchange-phase regions,
          "overlap_rounds_s":  seconds posting frames from on_iteration,
          "blocking_rounds_s": seconds posting frames at the epoch edge,
        }

    ``mode`` comes from the scheduler's ``round.post`` events ("overlap"
    when posted by ``communicate_chunk``, "blocking" otherwise).
    """
    events = list(events)
    phases = phase_totals_by_rank(events)
    mode_time: dict[int, dict[str, float]] = defaultdict(
        lambda: {"overlap": 0.0, "blocking": 0.0}
    )
    for ev in events:
        if ev.kind == "round.post":
            mode = str(ev.fields.get("mode"))
            if mode in ("overlap", "blocking"):
                mode_time[ev.rank][mode] += ev.dur
    return {
        rank: {
            "exchange_s": phases.get(rank, {}).get("exchange", 0.0),
            "overlap_rounds_s": mode_time[rank]["overlap"],
            "blocking_rounds_s": mode_time[rank]["blocking"],
        }
        for rank in sorted(set(mode_time) | set(phases))
    }


def service_report(events: Iterable[Event]) -> dict[tuple[int, int], dict[str, float]]:
    """Per ``(epoch, rank)``: how the exchange's deliveries were serviced.

    ``frames_in_flight_max`` is the most send frames the rank had out at
    once (a ``round.post`` takes one out, the ``round.ack`` that hands its
    buffer back returns it); ``queued_mean_s`` / ``queued_max_s`` are over
    the ``queued_s`` of its ``round.verified`` events — the time a delivery
    sat in the mailbox before a sweep took it.
    """
    flying: dict[tuple[int, int], int] = defaultdict(int)
    most: dict[tuple[int, int], int] = defaultdict(int)
    queued: dict[tuple[int, int], list[float]] = defaultdict(list)
    for ev in events:
        key = (ev.fields.get("epoch"), ev.rank)
        if ev.kind == "round.verified":
            queued[key].append(float(ev.fields.get("queued_s", 0.0)))
        elif ev.kind in ("round.post", "round.ack"):
            flying[key] += 1 if ev.kind == "round.post" else -1
            most[key] = max(most[key], flying[key])
    return {
        key: {
            "frames_in_flight_max": most[key],
            "queued_mean_s": sum(queued[key]) / max(1, len(queued[key])),
            "queued_max_s": max(queued[key], default=0.0),
        }
        for key in sorted({*most, *queued})
    }
