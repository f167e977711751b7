"""Cross-rank telemetry aggregation: collective-free metric time-series.

Every rank pushes a small metric snapshot once per epoch (phase seconds,
local loss, exchange deficit, pool occupancy) as an ordinary point-to-point
send to rank 0 on a dedicated tag — piggybacked on the existing
communicator, no collective, no synchronisation.  Rank 0 opportunistically
drains its telemetry mailbox whenever it pushes its own snapshot and folds
everything into per-``(metric, rank)`` time-series.

The aggregator object itself lives on the shared
:class:`~repro.mpi.world.World` (``world.telemetry``), which gives the
pipeline two properties a per-rank owner could not:

* it survives rank death — after an elastic shrink the *new* rank 0 drains
  into the same aggregator, so the series continue across recoveries;
* the launching harness reads the folded series after the run without
  any gather step (``world.telemetry.snapshot()["series"]``).

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

import math
import threading

__all__ = [
    "TELEMETRY_TAG",
    "TelemetryAggregator",
    "push_metrics",
    "drain_pending",
]

#: Dedicated wire tag of telemetry pushes.  The authoritative allocation is
#: ``repro.mpi.tags.TELEMETRY``; the value is mirrored here (rather than
#: imported) because this module must stay free of :mod:`repro.mpi` imports
#: — ``repro.mpi.world`` imports *us*.  ``tests/mpi/test_tags.py`` asserts
#: the two stay equal.
TELEMETRY_TAG = (1 << 19) + 5


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

    def snapshot(self) -> dict:
        """JSON-ready view: push count, ranks and per-rank series."""
        with self._lock:
            ranks = sorted({r for by in self._series.values() for r in by})
            series = {
                name: {
                    str(rank): [[s, v] for s, v in points]
                    for rank, points in sorted(by_rank.items())
                }
                for name, by_rank in sorted(self._series.items())
            }
            return {"pushes": self.pushes, "ranks": ranks, "series": series}


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

