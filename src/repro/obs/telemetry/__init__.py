"""The recorder, cross-rank aggregation, health.

* :mod:`~repro.obs.telemetry.flight` — the one recorder per rank: a
  bounded ring of the last K structured events, dumped automatically on
  faults; unbounded and with per-message detail under ``tracing=True``;
* :mod:`~repro.obs.telemetry.aggregate` — collective-free per-epoch metric
  pushes folded into cross-rank time-series with streaming quantiles,
  exported as JSON + OpenMetrics;
* :mod:`~repro.obs.telemetry.health` — straggler / deficit / pool-leak
  detectors over those series, surfacing :class:`HealthFinding` rows for
  the ``repro health`` CLI.

This package imports nothing from :mod:`repro.mpi` (the mpi layer owns the
flight log and aggregator, not the other way round).
"""

from .aggregate import (
    TELEMETRY_SCHEMA,
    TELEMETRY_TAG,
    TelemetryAggregator,
    drain_pending,
    push_metrics,
    to_openmetrics,
    write_telemetry_json,
)
from .flight import (
    DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_DIR_ENV,
    FLIGHT_SCHEMA,
    Event,
    FlightLog,
    FlightRecorder,
    rank_streams,
)
from .health import (
    HealthFinding,
    detect_deficit_growth,
    detect_pool_leak,
    detect_stragglers,
    render_findings,
    render_flight_timeline,
    render_rank_summary,
    run_health_checks,
)

__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "Event",
    "FLIGHT_DIR_ENV",
    "FLIGHT_SCHEMA",
    "FlightLog",
    "FlightRecorder",
    "HealthFinding",
    "TELEMETRY_SCHEMA",
    "TELEMETRY_TAG",
    "TelemetryAggregator",
    "detect_deficit_growth",
    "detect_pool_leak",
    "detect_stragglers",
    "drain_pending",
    "push_metrics",
    "rank_streams",
    "render_findings",
    "render_flight_timeline",
    "render_rank_summary",
    "run_health_checks",
    "to_openmetrics",
    "write_telemetry_json",
]
