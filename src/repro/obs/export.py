"""On-disk forms of the event stream: the flight dump and the Chrome trace.

* **Flight dump** (``repro.obs.flight/v1``) — what :meth:`FlightLog.dump
  <repro.obs.telemetry.FlightLog.dump>` writes: every rank's ring with raw
  monotonic-second timestamps.  Lossless; the dump of a traced run is its
  trace.
* **Chrome trace-event JSON** — a single JSON *array* of events with
  microsecond timestamps, ``pid`` = rank (one process lane per rank, named
  via ``ph="M"`` metadata), directly loadable in ``chrome://tracing`` and
  Perfetto.  This is what ``repro train --trace`` writes for the Figure 4
  style overlap inspection.

:func:`load_trace` reads either, so ``repro trace`` works on any file the
subsystem produced.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .merge import merge_ranks
from .telemetry.flight import Event

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "load_trace",
]


def chrome_trace_events(events: Iterable[Event]) -> list[dict]:
    """Convert a timeline (:func:`~repro.obs.merge_ranks`) to a Chrome
    trace-event list: one ``pid`` per rank, the event's kind as its name
    and the kind's first component as its category.

    Timestamps are rebased to the earliest event so the trace opens at t=0.
    Metadata events name each process lane ``rank <r>``.
    """
    events = sorted(events, key=lambda ev: (ev.ts, ev.rank))
    base_ts = events[0].ts if events else 0.0
    out: list[dict] = []
    for rank in sorted({ev.rank for ev in events}):
        out.append({"name": "process_name", "ph": "M", "pid": rank, "tid": 0,
                    "args": {"name": f"rank {rank}"}})
        out.append({"name": "process_sort_index", "ph": "M", "pid": rank,
                    "tid": 0, "args": {"sort_index": rank}})
    for ev in events:
        row = {
            "name": ev.kind,
            "cat": ev.kind.partition(".")[0],
            "ph": "X" if ev.dur else "i",
            "ts": (ev.ts - base_ts) * 1e6,
            "pid": ev.rank,
            "tid": 0,
            "args": ev.fields,
        }
        if ev.dur:
            row["dur"] = ev.dur * 1e6
        else:
            row["s"] = "t"  # thread-scoped instant
        out.append(row)
    return out


def write_chrome_trace(events: Iterable[Event], path: str | Path) -> Path:
    """Write the Chrome trace-event JSON array; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(chrome_trace_events(events), fh, default=str)
    return path


def load_trace(path: str | Path) -> list[Event]:
    """Load a flight dump or a Chrome trace-event array as one timeline.

    Chrome-format metadata events (``ph="M"``) are dropped; timestamps come
    back in seconds.  Anything else raises ``ValueError``.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "ranks" in data:
        return merge_ranks(data)
    if not isinstance(data, list):
        raise ValueError("neither a flight dump nor a Chrome trace-event array")
    return [
        Event(
            ts=row.get("ts", 0.0) / 1e6,
            dur=row.get("dur", 0.0) / 1e6,
            kind=row.get("name", ""),
            fields=dict(row.get("args", {})),
            rank=int(row.get("pid", 0)),
        )
        for row in data
        if row.get("ph") != "M"
    ]
