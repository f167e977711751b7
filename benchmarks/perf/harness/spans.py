"""In-memory span recorder and the wrappers that feed it.

The benchmark measures every layer *from outside*: each public function a
layer exposes is replaced, for the duration of one traced pass, by a wrapper
that records a span (name, start, end, parent) into the calling rank's
:class:`Recorder`.  Nothing under ``src/`` is edited; the wrappers are
installed before ``run_spmd`` launches (so forked rank processes inherit
them) and removed when the pass ends.

A rank's recorder lives in a thread-local slot, so the two rank *threads* of
the ``threads`` backend and the two rank *processes* of the ``procs`` backend
use the same code: a wrapper called on a thread without a recorder (a broker
thread in the ``procs`` parent, or any call outside a traced pass) is a plain
pass-through.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable

__all__ = [
    "Recorder",
    "Patcher",
    "current",
    "set_current",
    "self_times",
]

_tls = threading.local()
_MISSING = object()


def current() -> "Recorder | None":
    """The calling thread's recorder, or ``None`` outside a traced rank."""
    return getattr(_tls, "rec", None)


def set_current(rec: "Recorder | None") -> None:
    """Bind (or clear) the calling thread's recorder."""
    _tls.rec = rec


class Recorder:
    """One rank's spans, kept as parallel lists until the pass ends.

    Spans nest by call order on one thread, so ``parent`` is simply the span
    that was open when this one started (``-1`` at the top).  Inside a *leaf*
    span nested wrapped calls are not recorded: a leaf is a layer boundary
    whose inner calls belong to the same layer (``StorageArea.demote`` calling
    ``get``/``remove``), and skipping them keeps tracing overhead off the
    hottest paths.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.cur = -1
        self.in_leaf = False
        self._ids: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        """Small integer standing for ``name`` in the span table."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Start a span now; returns its index for :meth:`close`."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.cur)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.cur = idx
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` now and make its parent current again."""
        self.end[idx] = perf_counter()
        self.cur = self.parent[idx]

    def __len__(self) -> int:
        return len(self.name)

    def table(self) -> dict[str, Any]:
        """The spans as plain lists (what crosses the pipe and lands in the
        trace file)."""
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


def _wrap(fn: Callable[..., Any], name: str, leaf: bool) -> Callable[..., Any]:
    def traced(*args: Any, **kwargs: Any) -> Any:
        rec = getattr(_tls, "rec", None)
        if rec is None or rec.in_leaf:
            return fn(*args, **kwargs)
        idx = len(rec.name)
        rec.name.append(rec.name_id(name))
        rec.parent.append(rec.cur)
        rec.start.append(0.0)
        rec.end.append(0.0)
        prev = rec.cur
        rec.cur = idx
        rec.in_leaf = leaf
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end[idx] = perf_counter()
            rec.start[idx] = t0
            rec.cur = prev
            rec.in_leaf = False

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class Patcher:
    """Installs span wrappers over attributes and puts the originals back.

    ``install(owner, attr, name)`` replaces ``owner.attr`` (a function in a
    module namespace, or a method on a class) by a recording wrapper.  It is
    idempotent per ``(owner, attr)`` and thread-safe, because rank threads
    install the wrappers whose owner is only known at run time (the concrete
    pool and flight-recorder classes differ between backends).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._saved: dict[tuple[int, str], tuple[Any, str, Any]] = {}

    def install(self, owner: Any, attr: str, name: str, *, leaf: bool = True) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``."""
        with self._lock:
            key = (id(owner), attr)
            if key in self._saved:
                return
            # vars() sees the attribute as stored (a classmethod object, not
            # the bound method), so it can be restored exactly; an attribute
            # only inherited by ``owner`` is restored by deleting the override.
            raw = vars(owner).get(attr, _MISSING)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(_wrap(raw.__func__, name, leaf))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(raw.__func__, name, leaf))
            else:
                fn = getattr(owner, attr) if raw is _MISSING else raw
                wrapped = _wrap(fn, name, leaf)
            self._saved[key] = (owner, attr, raw)
            setattr(owner, attr, wrapped)

    def installed(self) -> int:
        """How many attributes are currently wrapped."""
        with self._lock:
            return len(self._saved)

    def remove_all(self) -> None:
        """Restore every wrapped attribute."""
        with self._lock:
            for owner, attr, raw in self._saved.values():
                if raw is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)
            self._saved.clear()


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span never overlap (they ran one after another on one
    thread), so the covered part is the sum of their durations.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
