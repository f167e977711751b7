"""Observability: one recorder per rank, and the readers of its stream.

The subsystem the paper's measurements hang off:

* :class:`FlightRecorder` / :class:`FlightLog` — the one thing
  instrumented code writes to (``comm.flight``): a bounded ring of the
  last K events per rank, always on and dumped on faults;
  ``run_spmd(tracing=True)`` lifts the bound and turns on the per-message
  / per-step events, so the full stream is the same ring.  One event
  shape, :class:`Event`.
* Merge + summary — cross-rank timeline reconstruction, Figure 10 phase
  totals, §III-B byte volumes, the overlap / blocking attribution and the
  lifecycle transitions as views over event kinds, and the digest behind
  ``repro trace``, the one reader of a run's artifacts.
* Exporters — the flight dump itself and Chrome trace-event JSON (one
  ``pid`` per rank; opens directly in ``chrome://tracing`` / Perfetto);
  :func:`load_trace` reads both.
* :class:`TelemetryAggregator` — collective-free cross-rank per-epoch
  metric series (``world.telemetry``).

Quick example::

    from repro.mpi import run_spmd
    from repro.obs import merge_ranks, write_chrome_trace

    def main(comm):
        with comm.flight.span("app.work"):
            comm.allreduce(comm.rank)

    result = run_spmd(main, size=4, tracing=True)
    write_chrome_trace(merge_ranks(result.world.flight), "trace.json")
"""

from .export import chrome_trace_events, load_trace, write_chrome_trace
from .merge import (
    LIFECYCLE_PREFIXES,
    PHASE_ORDER,
    bytes_by_rank,
    merge_ranks,
    overlap_report,
    service_report,
    phase_totals,
    phase_totals_by_rank,
)
from .summary import TraceSummary, render_summary, summarize_events, summarize_trace
from .telemetry import (
    Event,
    FlightLog,
    FlightRecorder,
    TelemetryAggregator,
    push_metrics,
)

__all__ = [
    "Event",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_trace",
    "merge_ranks",
    "phase_totals",
    "phase_totals_by_rank",
    "bytes_by_rank",
    "overlap_report",
    "service_report",
    "PHASE_ORDER",
    "LIFECYCLE_PREFIXES",
    "TraceSummary",
    "summarize_events",
    "summarize_trace",
    "render_summary",
    "FlightLog",
    "FlightRecorder",
    "TelemetryAggregator",
    "push_metrics",
]
