"""The recorder and the per-epoch metric push wire.

* :mod:`~repro.obs.telemetry.flight` — the one recorder per rank: a
  bounded ring of the last K structured events, dumped automatically on
  faults; unbounded and with per-message detail under ``tracing=True``;
* :mod:`~repro.obs.telemetry.aggregate` — collective-free per-epoch metric
  pushes folded into cross-rank time-series on ``world.telemetry``.

This package imports nothing from :mod:`repro.mpi` (the mpi layer owns the
flight log and aggregator, not the other way round).
"""

from .aggregate import (
    TELEMETRY_TAG,
    TelemetryAggregator,
    drain_pending,
    push_metrics,
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

__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "Event",
    "FLIGHT_DIR_ENV",
    "FLIGHT_SCHEMA",
    "FlightLog",
    "FlightRecorder",
    "TELEMETRY_TAG",
    "TelemetryAggregator",
    "drain_pending",
    "push_metrics",
    "rank_streams",
]
