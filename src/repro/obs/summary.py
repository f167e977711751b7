"""Trace summarisation: what ``repro trace <file>`` prints.

Turns an event stream (a flight dump or a Chrome JSON array) into the
tables an experimenter actually wants on the terminal:

* the lifecycle timeline — every kill, shrink, checkpoint, crash, restart,
  rejoin and rebalance, in time order (only when the stream holds one);
* per-phase totals — the Figure 10 split, per rank and aggregated;
* per-rank byte counts — the §III-B traffic view;
* top spans by duration — where the time actually went;
* an ASCII Gantt of each rank's phase lanes — the Figure 4 overlap shape.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.utils.ascii_plot import gantt
from repro.utils.tables import render_table
from repro.utils.units import format_size

from .export import load_trace
from .merge import (
    LIFECYCLE_PREFIXES,
    PHASE_ORDER,
    PHASE_PREFIX,
    bytes_by_rank,
    overlap_report,
    phase_totals,
    phase_totals_by_rank,
    service_report,
)
from .telemetry.flight import Event

__all__ = ["TraceSummary", "summarize_events", "summarize_trace", "render_summary"]


@dataclass
class TraceSummary:
    """Structured digest of one trace file."""

    n_events: int
    ranks: list[int]
    wall_s: float
    phase_totals: dict[str, float]
    phase_by_rank: dict[int, dict[str, float]]
    bytes_by_rank: dict[int, dict[str, int]]
    overlap: dict[int, dict[str, float]]
    service: dict[tuple[int, int], dict[str, float]]
    transitions: list[Event] = field(default_factory=list)
    top_spans: list[Event] = field(default_factory=list)
    events: list[Event] = field(default_factory=list, repr=False)


#: How many of the longest spans a summary lists.
TOP_SPANS = 10


def summarize_events(events: Sequence[Event]) -> TraceSummary:
    """Digest an event list (see :class:`TraceSummary`)."""
    spans = [ev for ev in events if ev.dur]
    ranks = sorted({ev.rank for ev in events})
    t_lo = min((ev.ts for ev in events), default=0.0)
    t_hi = max((ev.end for ev in events), default=0.0)
    return TraceSummary(
        n_events=len(events),
        ranks=ranks,
        wall_s=t_hi - t_lo,
        phase_totals=phase_totals(events),
        phase_by_rank=phase_totals_by_rank(events),
        bytes_by_rank=bytes_by_rank(events),
        overlap=overlap_report(events),
        service=service_report(events),
        transitions=sorted(
            (ev for ev in events if ev.kind.startswith(LIFECYCLE_PREFIXES)),
            key=lambda ev: ev.ts,
        ),
        top_spans=sorted(spans, key=lambda ev: ev.dur, reverse=True)[:TOP_SPANS],
        events=list(events),
    )


def summarize_trace(path: str | Path) -> TraceSummary:
    """Load + digest a flight dump or a Chrome trace file."""
    return summarize_events(load_trace(path))


def _phase_lanes(events: Sequence[Event]) -> dict[str, list[tuple[float, float]]]:
    """One Gantt lane per (rank, phase), ordered rank-major, Figure-10 phase
    order within a rank."""
    lanes: dict[tuple[int, str], list[tuple[float, float]]] = defaultdict(list)
    for ev in events:
        if ev.kind.startswith(PHASE_PREFIX):
            lanes[(ev.rank, ev.kind[len(PHASE_PREFIX):])].append((ev.ts, ev.end))
    order = {name: i for i, name in enumerate(PHASE_ORDER)}

    def key(rank_phase: tuple[int, str]):
        rank, phase = rank_phase
        return (rank, order.get(phase, len(order)), phase)

    return {
        f"r{rank}:{phase}": lanes[(rank, phase)]
        for rank, phase in sorted(lanes, key=key)
    }


def render_summary(summary: TraceSummary) -> str:
    """Render a summary as the multi-table text block ``repro trace`` prints."""
    parts: list[str] = []
    if summary.transitions:
        t0 = summary.transitions[0].ts
        rows = [
            [f"+{ev.ts - t0:.3f}s", ev.rank, ev.kind,
             ", ".join(f"{k}={v}" for k, v in ev.fields.items())]
            for ev in summary.transitions
        ]
        parts.append(render_table(
            ["t", "rank", "transition", "detail"], rows,
            title=f"lifecycle timeline: {len(rows)} event(s)",
        ))
    parts.append(
        f"{summary.n_events} events over {len(summary.ranks)} rank(s), "
        f"wall {summary.wall_s:.4f} s"
    )

    if summary.phase_totals:
        known = [p for p in PHASE_ORDER if p in summary.phase_totals]
        extra = sorted(set(summary.phase_totals) - set(known))
        phases = known + extra
        total = sum(summary.phase_totals.values())
        rows = []
        for rank in sorted(summary.phase_by_rank):
            per = summary.phase_by_rank[rank]
            rows.append([f"rank {rank}"] + [f"{per.get(p, 0.0):.4f}" for p in phases]
                        + [f"{sum(per.values()):.4f}"])
        rows.append(["all"] + [f"{summary.phase_totals[p]:.4f}" for p in phases]
                    + [f"{total:.4f}"])
        parts.append(render_table(
            ["", *phases, "total"], rows, title="per-phase totals (s)"
        ))

    if summary.bytes_by_rank:
        rows = [
            [f"rank {rank}", format_size(b["p2p_sent"]),
             format_size(b["p2p_recv"]), format_size(b["coll_contrib"])]
            for rank, b in sorted(summary.bytes_by_rank.items())
        ]
        parts.append(render_table(
            ["", "p2p sent", "p2p recv", "coll contrib"], rows,
            title="bytes moved per rank",
        ))

    if any(v["exchange_s"] or v["overlap_rounds_s"] or v["blocking_rounds_s"]
           for v in summary.overlap.values()):
        rows = [
            [f"rank {rank}", f"{v['exchange_s']:.4f}",
             f"{v['overlap_rounds_s']:.4f}", f"{v['blocking_rounds_s']:.4f}"]
            for rank, v in sorted(summary.overlap.items())
        ]
        parts.append(render_table(
            ["", "exchange (s)", "overlap rounds (s)", "blocking rounds (s)"],
            rows, title="exchange overlap attribution (Figure 4)",
        ))

    if summary.service:
        rows = [
            [f"{epoch}", f"rank {rank}", f"{v['frames_in_flight_max']}",
             f"{v['queued_mean_s']:.5f}", f"{v['queued_max_s']:.5f}"]
            for (epoch, rank), v in summary.service.items()
        ]
        parts.append(render_table(
            ["epoch", "", "frames in flight (max)", "queued mean (s)", "queued max (s)"],
            rows, title="exchange servicing (send frames out at once; time a "
            "delivery waited for its sweep)",
        ))

    if summary.top_spans:
        rows = [
            [ev.kind, f"rank {ev.rank}", f"{ev.dur:.5f}",
             format_size(ev.fields["nbytes"]) if "nbytes" in ev.fields else "-"]
            for ev in summary.top_spans
        ]
        parts.append(render_table(
            ["span", "rank", "dur (s)", "bytes"], rows,
            title="top spans by duration",
        ))

    lanes = _phase_lanes(summary.events)
    if lanes:
        parts.append("phase timeline (per rank):")
        parts.append(gantt(lanes))

    return "\n\n".join(parts)
