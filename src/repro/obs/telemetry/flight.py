"""The flight recorder: the one thing instrumented code writes to.

Every rank has one :class:`FlightRecorder`, reached as ``comm.flight`` on
both backends.  What a layer knows about a run — a frame posted, a NACK, a
commit, a rank death, a collective's wait, a Figure-10 phase region — is
one event ``(ts, dur, kind, fields)`` appended to that rank's ring
(``dur = 0`` for an instant; ``ts`` is ``time.perf_counter`` read *at the
rank*, ``CLOCK_MONOTONIC``, so events of different ranks — threads or
forked processes — sort on one axis).

Two regimes, one stream:

* **Always on.**  The protocol-level events (``exchange.plan``,
  ``round.*``, ``epoch.*``, ``lifecycle.*``, ``elastic.*``, ``rank.died``)
  go into a bounded ring of the last K events at near-zero cost: one or
  two clock reads and one ``deque.append``.  Phase
  regions (:meth:`FlightRecorder.phase`) always add into per-epoch totals.
* **Detail** (``run_spmd(tracing=True)``, and nothing else).  The
  per-message and per-step sites (p2p calls, collectives, phase regions)
  test :attr:`FlightRecorder.detail` before they build an event, and the
  ring loses its bound — so the full stream *is* the ring, and a flight
  dump of a traced run is its trace.

When something dies — a chaos kill, an :class:`UnrecoveredFaultError`, a
shrink after a rank death, a world abort — the fault path calls
:meth:`FlightLog.dump` and gets a post-mortem artifact containing every
rank's recent history, because the rings live on the shared
:class:`~repro.mpi.world.World`: the survivors' state is right there, no
collection protocol needed.  Dumps are deduplicated by key so N survivors
observing one failure produce one artifact, and are optionally written as
JSON next to the run (``dump_dir`` or the ``REPRO_FLIGHT_DIR`` environment
variable).

This module is deliberately free of :mod:`repro.mpi` imports: the mpi
layer owns a ``FlightLog``, not the other way round.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterator, NamedTuple

__all__ = [
    "Event",
    "FlightRecorder",
    "FlightLog",
    "rank_streams",
    "FLIGHT_SCHEMA",
    "DEFAULT_FLIGHT_CAPACITY",
    "FLIGHT_DIR_ENV",
]

#: Schema tag written into every dump.
FLIGHT_SCHEMA = "repro.obs.flight/v1"

#: Events retained per rank.  An exchange frame emits ~3 events (post /
#: verified / ack), so 512 covers the last ~170 frames plus epoch markers
#: — several epochs of context at ~100 B/event.
DEFAULT_FLIGHT_CAPACITY = 512

#: Environment variable naming the directory dumps are written to.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"


class Event(NamedTuple):
    """One event of one rank — the shape every reader works on.

    A ring holds the first four fields; the rank is attached when streams
    of several ranks are put side by side (:func:`rank_streams`,
    :func:`repro.obs.merge_ranks`).
    """

    ts: float  # start time (perf_counter seconds)
    dur: float  # seconds; 0.0 for an instant
    kind: str  # dotted name, e.g. "round.post", "coll.allreduce", "phase.io"
    fields: dict[str, Any]
    rank: int

    @property
    def end(self) -> float:
        """End timestamp (``ts + dur``)."""
        return self.ts + self.dur


def rank_streams(dump: dict) -> list[list[Event]]:
    """The per-rank event lists of a flight dump (:data:`FLIGHT_SCHEMA`).

    Inverse of the dict view :meth:`FlightRecorder.events` writes: ``ts``,
    ``kind`` and (on timed events) ``dur`` are the event's own, every other
    key is a field.
    """
    return [
        [
            Event(
                float(row.get("ts", 0.0)), float(row.get("dur", 0.0)),
                row.get("kind", ""),
                {k: v for k, v in row.items() if k not in ("ts", "dur", "kind")},
                int(rank),
            )
            for row in rows
        ]
        for rank, rows in dump.get("ranks", {}).items()
    ]


class _Span:
    """Times one region; appends one event on exit."""

    __slots__ = ("_rec", "_kind", "_fields", "_t0")

    def __init__(self, rec: "FlightRecorder", kind: str, fields: dict[str, Any]):
        self._rec = rec
        self._kind = kind
        self._fields = fields
        self._t0 = 0.0

    def set(self, **fields: Any) -> None:
        """Attach fields discovered while the region is open (e.g. the byte
        count of a message that only exists after the receive completes)."""
        self._fields.update(fields)

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc: object) -> bool:
        t1 = time.perf_counter()
        if exc_type is not None:
            # The kind says what was attempted; a post-mortem reader must
            # be able to tell that it did not happen.
            self._fields["error"] = exc_type.__name__
        self._rec.append((self._t0, t1 - self._t0, self._kind, self._fields))
        return False


class _Phase:
    """Times one phase region; adds into the epoch's totals."""

    __slots__ = ("_rec", "_name", "_t0")

    def __init__(self, rec: "FlightRecorder", name: str) -> None:
        self._rec = rec
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Phase":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        dur = time.perf_counter() - self._t0
        rec = self._rec
        totals = rec._phases
        totals[self._name] = totals.get(self._name, 0.0) + dur
        if rec.detail:
            rec.append((self._t0, dur, "phase." + self._name, {}))
        return False


class _Suspension:
    """Context manager flipping a recorder's ``detail`` off and back.

    Re-entrant on one rank's thread (the previous state is restored on
    exit); a recorder belongs to one rank, so no cross-thread state is
    involved.
    """

    __slots__ = ("_rec", "_prev")

    def __init__(self, rec: "FlightRecorder") -> None:
        self._rec = rec
        self._prev = False

    def __enter__(self) -> "_Suspension":
        self._prev = self._rec.detail
        self._rec.detail = False
        return self

    def __exit__(self, *exc: object) -> bool:
        self._rec.detail = self._prev
        return False


class FlightRecorder:
    """One rank's event ring.

    Events are ``(ts, dur, kind, fields)`` tuples; ``fields`` must be
    JSON-serialisable scalars/tuples so a dump can always be written.
    ``append`` is the one step that differs between backends: the ring's
    own ``append`` here (atomic under CPython, so no lock), a
    fire-and-forget cast to the parent-hosted ring in a ``procs`` rank
    process (:mod:`repro.mpi.procs`).
    """

    __slots__ = ("rank", "detail", "append", "_phases", "_ring")

    def __init__(self, rank: int, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        self.rank = rank
        #: True exactly when the run was launched with ``tracing=True``:
        #: the per-message / per-step sites test it before building a span.
        self.detail = False
        self._phases: dict[str, float] = {}
        self._ring: deque = deque(maxlen=capacity)
        self.append = self._ring.append

    def record(self, kind: str, **fields: Any) -> None:
        """Append one instant event (drops the oldest when the ring is full)."""
        self.append((time.perf_counter(), 0.0, kind, fields))

    def span(self, kind: str, **fields: Any):
        """Context manager timing one region: one event on exit, with an
        ``error`` field naming the exception if the region raised.  More
        fields can be attached inside the region with ``.set(**fields)``."""
        return _Span(self, kind, fields)

    def phase(self, name: str) -> _Phase:
        """Context manager timing one Figure-10 phase region (``io`` /
        ``exchange`` / ``fw_bw`` / ``ge_wu``): two clock reads and a dict
        update into the totals :meth:`take_phases` hands out, plus — under
        ``detail`` only — one ``phase.<name>`` event per region."""
        return _Phase(self, name)

    def take_phases(self) -> dict[str, float]:
        """Seconds per phase since the last call (the epoch's totals)."""
        totals = self._phases
        self._phases = {}
        return totals

    def suspended(self) -> _Suspension:
        """Context manager: no detail events from this rank for a while.

        Used by instrumentation that performs wire operations whose *timing*
        is inherently racy (the exchange's ACK/NACK control plane) and are
        already covered by a deterministically ordered event of its own —
        keeping a traced run's per-rank stream reproducible run-to-run.
        """
        return _Suspension(self)

    def enable_detail(self) -> None:
        """Turn ``detail`` on and keep every event from here on."""
        self.detail = True
        self._ring = deque(self._ring)
        self.append = self._ring.append

    def events(self) -> list[dict]:
        """Snapshot of the ring, oldest first, as plain dicts:
        ``{"ts", "kind", **fields}``, plus ``"dur"`` on timed events."""
        out = []
        for ts, dur, kind, fields in self:
            view = {"ts": ts, "kind": kind}
            if dur:
                view["dur"] = dur
            view.update(fields)
            out.append(view)
        return out

    def __iter__(self) -> Iterator[tuple]:
        """The ring's ``(ts, dur, kind, fields)`` tuples, oldest first."""
        return iter(list(self._ring))


class FlightLog:
    """All ranks' flight recorders plus the dump machinery.

    Owned by the :class:`~repro.mpi.world.World`; each rank records into
    its own ring via ``comm.flight`` and any fault path can dump *every*
    rank's recent history in one call.

    Parameters
    ----------
    size:
        Number of ranks.
    capacity:
        Events retained per rank.
    dump_dir:
        Where to write dump JSON files.  Defaults to the
        ``REPRO_FLIGHT_DIR`` environment variable; when neither is set
        dumps are kept in memory only (``self.dumps``).
    """

    def __init__(
        self,
        size: int,
        *,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        dump_dir: str | Path | None = None,
    ) -> None:
        self.capacity: int | None = capacity
        self.recorders = [FlightRecorder(r, capacity) for r in range(size)]
        env_dir = os.environ.get(FLIGHT_DIR_ENV)
        self.dump_dir: Path | None = (
            Path(dump_dir) if dump_dir is not None
            else (Path(env_dir) if env_dir else None)
        )
        #: Every dump taken this run, in order (post-mortems for tests and
        #: harnesses even when no dump_dir is configured).
        self.dumps: list[dict] = []
        self._dump_lock = threading.Lock()
        self._dumped_keys: set = set()
        self._dump_counter = 0

    # ------------------------------------------------------------- recording
    def for_rank(self, rank: int) -> FlightRecorder:
        """The given world rank's recorder."""
        return self.recorders[rank]

    @property
    def detail(self) -> bool:
        """Whether the run records per-message / per-step events."""
        return bool(self.recorders) and self.recorders[0].detail

    def enable_detail(self) -> None:
        """What ``run_spmd(tracing=True)`` does: every rank's ``detail`` on
        and no bound on the rings, from before the first rank starts."""
        self.capacity = None
        for rec in self.recorders:
            rec.enable_detail()

    # ----------------------------------------------------------------- dumps
    def dump(self, reason: str, *, key: object = None, extra: dict | None = None) -> dict | None:
        """Snapshot every rank's ring into one post-mortem artifact.

        ``key`` deduplicates: when several ranks observe the same failure
        (a shrink, an abort) only the first call produces a dump and the
        rest return ``None``.  The dump is appended to ``self.dumps`` and,
        when a dump directory is configured, written as
        ``flight-<n>-<slug>.json``; the artifact records its own ``path``.
        """
        with self._dump_lock:
            if key is not None:
                if key in self._dumped_keys:
                    return None
                self._dumped_keys.add(key)
            self._dump_counter += 1
            index = self._dump_counter
        artifact = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "index": index,
            "wall_time": time.time(),
            "capacity": self.capacity,
            "ranks": {
                str(rec.rank): rec.events() for rec in self.recorders
            },
        }
        if extra:
            artifact["extra"] = dict(extra)
        path = self._write(artifact, index, reason)
        if path is not None:
            artifact["path"] = str(path)
        with self._dump_lock:
            self.dumps.append(artifact)
        return artifact

    def _write(self, artifact: dict, index: int, reason: str) -> Path | None:
        if self.dump_dir is None:
            return None
        slug = "".join(
            ch if ch.isalnum() or ch == "-" else "-" for ch in reason.lower()
        ).strip("-")[:48] or "dump"
        path = Path(self.dump_dir) / f"flight-{index:03d}-{slug}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifact, indent=2, default=str) + "\n")
        return path
