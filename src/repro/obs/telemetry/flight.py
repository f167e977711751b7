"""The flight recorder: bounded per-rank rings of structured events.

Full tracing stores everything and therefore stays opt-in; the flight
recorder is the always-on complement — a fixed-size ring per rank holding
the *last K* structured events (exchange attempts, ACKs, NACKs, rollbacks,
phase durations, RNG fingerprints, recovery steps) at near-zero cost:
recording is one ``deque.append`` of a small tuple behind one enabled
check, and an idle recorder costs nothing.

When something dies — a chaos kill, an :class:`UnrecoveredFaultError`, a
shrink after a rank death, a world abort — the fault path calls
:meth:`FlightLog.dump` and gets a post-mortem artifact containing every
rank's recent history, because the ring buffers live on the shared
:class:`~repro.mpi.world.World` (ranks are threads): the survivors' state
is right there, no collection protocol needed.  Dumps are deduplicated by
key so N survivors observing one failure produce one artifact, and are
optionally written as JSON next to the run (``dump_dir`` or the
``REPRO_FLIGHT_DIR`` environment variable).

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

__all__ = [
    "FlightRecorder",
    "FlightLog",
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


class FlightRecorder:
    """One rank's bounded event ring.

    ``record`` is the hot path: one enabled check, one ``perf_counter``
    read, one deque append (atomic under CPython, so no lock).  Events are
    ``(ts, kind, fields)`` tuples; ``fields`` must be JSON-serialisable
    scalars/tuples so a dump can always be written.
    """

    __slots__ = ("rank", "enabled", "_ring")

    def __init__(self, rank: int, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        self.rank = rank
        self.enabled = True
        self._ring: deque = deque(maxlen=capacity)

    def record(self, kind: str, **fields) -> None:
        """Append one event to the ring (drops the oldest when full)."""
        if self.enabled:
            self._ring.append((time.perf_counter(), kind, fields))

    def events(self) -> list[dict]:
        """Snapshot of the ring, oldest first, as plain dicts."""
        return [
            {"ts": ts, "kind": kind, **fields}
            for ts, kind, fields in list(self._ring)
        ]

    def clear(self) -> None:
        """Drop all retained events."""
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)


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
        self.capacity = capacity
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
    def enabled(self) -> bool:
        """Whether the recorders are recording (all toggled together)."""
        return bool(self.recorders) and self.recorders[0].enabled

    def set_enabled(self, flag: bool) -> None:
        """Enable/disable every rank's recorder (the overhead-bench knob)."""
        for rec in self.recorders:
            rec.enabled = bool(flag)

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

    @property
    def last_dump(self) -> dict | None:
        """The most recent dump (None if none was taken)."""
        return self.dumps[-1] if self.dumps else None
