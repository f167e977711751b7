"""Cross-rank telemetry aggregation: collective-free metric time-series.

Every rank pushes a small metric snapshot once per epoch (phase seconds,
local loss, exchange deficit, pool occupancy) as an ordinary point-to-point
send to rank 0 on a dedicated tag — piggybacked on the existing
communicator, no collective, no synchronisation.  Rank 0 opportunistically
drains its telemetry mailbox whenever it pushes its own snapshot and folds
everything into per-``(metric, rank)`` time-series plus a streaming
quantile digest (:class:`~repro.obs.metrics.Reservoir`) per metric.

The aggregator object itself lives on the shared
:class:`~repro.mpi.world.World` (``world.telemetry``), which gives the
pipeline two properties a per-rank owner could not:

* it survives rank death — after an elastic shrink the *new* rank 0 drains
  into the same aggregator, so the series continue across recoveries;
* the launching harness can export the folded series after the run without
  any gather step (ranks are threads; the data is already here).

Wire protocol: ``("telemetry", world_rank, seq, {metric: value})`` on
:data:`TELEMETRY_TAG`.  The tag sits outside every range the exchange uses
(data rounds at ``1<<16``+round, control at ``1<<18``, epoch parity at
``1<<20``), so telemetry can never be matched by an exchange receive.

SPMD cleanliness: the push path is p2p-only under rank checks — exactly
the pattern the SPMD lint permits (collectives under rank-dependent
control flow are the hazard, not sends), and the blocking ``send`` of the
in-process wire completes synchronously, so no request is ever left
pending (SPMD002).

This module is deliberately free of :mod:`repro.mpi` imports — the
communicator comes in duck-typed, because :mod:`repro.mpi.world` imports
*us*.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

from repro.obs.metrics import Reservoir

__all__ = [
    "TELEMETRY_TAG",
    "TELEMETRY_SCHEMA",
    "TelemetryAggregator",
    "push_metrics",
    "drain_pending",
    "to_openmetrics",
    "write_telemetry_json",
]

#: Dedicated wire tag of telemetry pushes.  The authoritative allocation is
#: ``repro.mpi.tags.TELEMETRY``; the value is mirrored here (rather than
#: imported) because this module must stay free of :mod:`repro.mpi` imports
#: — ``repro.mpi.world`` imports *us*.  ``tests/mpi/test_tags.py`` asserts
#: the two stay equal.
TELEMETRY_TAG = (1 << 19) + 5

#: Schema tag of exported JSON snapshots.
TELEMETRY_SCHEMA = "repro.obs.telemetry/v1"

#: Reservoir size of the per-metric quantile digests.
DIGEST_CAPACITY = 256


class TelemetryAggregator:
    """Folds pushed metric snapshots into per-rank time-series.

    Thread-safe: the draining rank can change across an elastic shrink
    (old rank 0 drains pre-shrink leftovers, new rank 0 takes over), so
    ingestion takes a lock.  Series are keyed by *world* rank — stable
    across communicator shrinks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # {metric: {world_rank: [(seq, value), ...]}}
        self._series: dict[str, dict[int, list[tuple[int, float]]]] = {}
        # {metric: Reservoir} — the streaming quantile digest over all ranks.
        self._digests: dict[str, Reservoir] = {}
        self.pushes = 0

    def ingest(self, rank: int, seq: int, metrics: dict) -> None:
        """Fold one rank's snapshot into the series."""
        with self._lock:
            self.pushes += 1
            for name, value in metrics.items():
                value = float(value)
                if math.isnan(value):
                    continue
                self._series.setdefault(name, {}).setdefault(int(rank), []).append(
                    (int(seq), value)
                )
                digest = self._digests.get(name)
                if digest is None:
                    digest = self._digests[name] = Reservoir(
                        f"telemetry/{name}", DIGEST_CAPACITY
                    )
                digest.add(value)

    def snapshot(self) -> dict:
        """JSON-ready view: series, last values, and p50/p95/p99 digests."""
        with self._lock:
            ranks = sorted({r for by in self._series.values() for r in by})
            series = {
                name: {
                    str(rank): [[s, v] for s, v in points]
                    for rank, points in sorted(by_rank.items())
                }
                for name, by_rank in sorted(self._series.items())
            }
            last = {
                name: {
                    str(rank): points[-1][1]
                    for rank, points in sorted(by_rank.items())
                    if points
                }
                for name, by_rank in sorted(self._series.items())
            }
            quantiles = {
                name: {"count": digest.n, **digest.quantiles((0.50, 0.95, 0.99))}
                for name, digest in sorted(self._digests.items())
            }
            return {
                "schema": TELEMETRY_SCHEMA,
                "pushes": self.pushes,
                "ranks": ranks,
                "series": series,
                "last": last,
                "quantiles": quantiles,
            }


def push_metrics(comm, seq: int, metrics: dict) -> None:
    """Push one metric snapshot from this rank (any rank; collective-free).

    Non-zero ranks send to the communicator's rank 0; rank 0 ingests
    directly into ``world.telemetry`` and drains whatever peers have
    already pushed.  Delivery of remote pushes is guaranteed by program
    order: callers push *before* an epoch-ending collective, so by the
    time rank 0 passes that collective every peer's send is deposited.
    """
    world_rank = comm.group[comm.rank]
    if comm.rank == 0:
        comm.world.telemetry.ingest(world_rank, seq, metrics)
        drain_pending(comm)
    else:
        comm.send(("telemetry", world_rank, seq, metrics), dest=0, tag=TELEMETRY_TAG)


def drain_pending(comm) -> int:
    """Rank 0: fold every queued telemetry push into the aggregator.

    Returns the number of snapshots drained.  Non-blocking (``iprobe``
    driven), so it is safe to call even when peers are dead — including
    from the elastic recovery path, which drains the pre-shrink context's
    leftovers before the communicator (and its wire tags) changes.
    """
    agg = comm.world.telemetry
    drained = 0
    while comm.iprobe(tag=TELEMETRY_TAG):
        _kind, rank, seq, metrics = comm.recv(tag=TELEMETRY_TAG)
        agg.ingest(rank, seq, metrics)
        drained += 1
    return drained


# ------------------------------------------------------------------ exporters
def _om_name(metric: str) -> str:
    """An OpenMetrics-legal sample name for a dotted metric."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in metric)
    return f"repro_{safe}"


def to_openmetrics(snapshot: dict) -> str:
    """Render a :meth:`TelemetryAggregator.snapshot` as OpenMetrics text.

    One gauge family per metric with a ``rank`` label carrying each rank's
    last pushed value, plus ``{quantile=...}`` samples from the streaming
    digest.  Ends with the mandatory ``# EOF`` marker.
    """
    lines: list[str] = []
    for metric in sorted(snapshot.get("last", {})):
        name = _om_name(metric)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"# HELP {name} last pushed value of {metric} per rank")
        for rank, value in sorted(
            snapshot["last"][metric].items(), key=lambda kv: int(kv[0])
        ):
            lines.append(f'{name}{{rank="{rank}"}} {value:.9g}')
        q = snapshot.get("quantiles", {}).get(metric)
        if q:
            for label in ("p50", "p95", "p99"):
                val = q.get(label, math.nan)
                if not math.isnan(val):
                    lines.append(
                        f'{name}{{quantile="0.{label[1:]}"}} {val:.9g}'
                    )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_telemetry_json(snapshot: dict, path: str | Path) -> Path:
    """Write the JSON snapshot; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    return path
