"""SPMD launcher: run one function as N simulated MPI ranks.

``run_spmd(fn, size)`` is this library's equivalent of
``mpiexec -n <size> python script.py``: it creates a shared
:class:`~repro.mpi.world.World`, spawns one rank per requested slot, calls
``fn(comm, *args)`` on each, and returns the per-rank return values.  If any
rank raises, the world is aborted (unblocking every other rank) and a
:class:`~repro.mpi.errors.RankFailed` carrying all per-rank exceptions is
raised in the caller.

*Where* a rank executes is the backend.  ``threads`` (the default) runs each
rank as an OS thread in this process, zero-copy on one shared heap; numpy
releases the GIL, so compute overlaps there too.  ``procs``
(:mod:`repro.mpi.procs`) forks one process per rank: p2p, the exchange
pool and the launch folds run rank to rank over ``/dev/shm``, the rest of
the same world is a pipe round trip to this process away.  It is there for
what threads cannot give — a rank that can really be ``SIGKILL``-ed,
per-process RSS, an interpreter per rank (``docs/backends.md`` has the
measured matrix).  The world, its
flight recorders, what happens when a rank ends (:func:`_run_rank`) and the
:class:`SpmdResult` / :class:`~repro.mpi.errors.RankFailed` assembly are
the same code either way.  Select with ``run_spmd(..., backend="procs")``.
"""

from __future__ import annotations

import threading
import warnings
from typing import Any, Callable, Sequence

from .communicator import Communicator
from .errors import MPIAbort, PeerFailure, RankDied, RankFailed
from .world import World

__all__ = [
    "DEFAULT_BACKEND",
    "SpmdResult",
    "resolve_backend_name",
    "run_spmd",
]

#: Backend used when the call site names none.
DEFAULT_BACKEND = "threads"


def _load_procs() -> Callable[..., list]:
    # Imported at launch: ``import repro.mpi`` never pays for the fork and
    # pipe machinery of a backend it does not use.
    from .procs import host_procs

    return host_procs


#: Backend name -> loader of the function that hosts the ranks: called as
#: ``host(world, fn, args, deadline_s=)``,
#: returns one :func:`_run_rank` outcome per rank.
_BACKENDS: dict[str, Callable[[], Callable[..., list]]] = {
    "threads": lambda: _host_threads,
    "procs": _load_procs,
}


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve an explicit name, or the default when there is none,
    rejecting a name that is not a backend."""
    resolved = name or DEFAULT_BACKEND
    if resolved not in _BACKENDS:
        raise ValueError(
            f"unknown backend {resolved!r}; available: "
            f"{', '.join(sorted(_BACKENDS))}"
        )
    return resolved


class SpmdResult(list):
    """Per-rank return values, with the world attached: traffic stats, and
    the run's events in ``world.flight`` (the last K per rank; all of them
    when the run was launched with ``tracing=True``)."""

    def __init__(self, values: Sequence[Any], world: World):
        super().__init__(values)
        self.world = world


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    *,
    args: Sequence[Any] = (),
    copy_on_send: bool = False,
    deadline_s: float | None = 300.0,
    tracing: bool = False,
    world_factory: Callable[..., World] | None = None,
    backend: str | None = None,
) -> SpmdResult:
    """Execute ``fn(comm, *args)`` on ``size`` simulated ranks.

    Parameters
    ----------
    fn:
        The per-rank entry point.  Receives a :class:`Communicator` whose
        ``rank``/``size`` identify the caller.
    size:
        Number of ranks (threads or processes, per ``backend``).
    copy_on_send:
        Only ``False`` is accepted: a payload always travels by reference
        (the buffer rule the :class:`Communicator` docstring states).
    deadline_s:
        Wall-clock budget guarding against deadlock; ``None`` disables.
    tracing:
        When True every rank's flight recorder (``comm.flight``) keeps all
        its events instead of the last K, and records per-message detail:
        every p2p call and collective with byte counts, every Figure-10
        phase region.  When False those sites cost one flag test, and the
        recorder keeps only its always-on events, the last K of them.
    world_factory:
        Alternative :class:`World` constructor, called as
        ``world_factory(size, deadline_s=...)``;
        the seam through which :class:`~repro.faults.ChaosWorld` injects
        message faults without the MPI layer knowing about chaos.  Works on
        both backends (under ``procs`` the factory's world is hosted here,
        and its ``_deliver`` seam runs on each sender's forked copy).
    backend:
        Where the ranks execute: ``"threads"`` (default, also for
        ``None``) or ``"procs"``.

    Returns
    -------
    SpmdResult
        ``result[r]`` is rank *r*'s return value; ``result.world`` exposes
        traffic counters (``bytes_sent`` etc.) and, as ``world.flight``, the
        per-rank event streams.
    """
    # The keyword stays only because the benchmark harness passes it by
    # name; it goes when the harness stops passing it (ROADMAP item 4).
    if copy_on_send is not False:
        raise ValueError("copy_on_send must be False: payloads travel by reference")
    host = _BACKENDS[resolve_backend_name(backend)]()
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    make_world = world_factory if world_factory is not None else World
    world = make_world(size, deadline_s=deadline_s)
    if tracing:
        world.flight.enable_detail()
    outcomes = host(world, fn, tuple(args), deadline_s=deadline_s)
    failures = {r: value for r, (ok, value) in enumerate(outcomes) if not ok}
    if failures:
        # An MPIAbort, or a PeerFailure naming a rank that failed itself, is
        # the echo of another rank's failure: report it only when no rank
        # has a failure of its own.  Which echo a rank hits is a race.
        primary = {
            r: e for r, e in failures.items()
            if not isinstance(e, MPIAbort)
            and not (isinstance(e, PeerFailure) and e.rank != r and e.rank in failures)
        } or failures
        raise RankFailed(primary)
    return SpmdResult([value for _ok, value in outcomes], world)


def _host_threads(
    world: World,
    fn: Callable[..., Any],
    args: tuple,
    *,
    deadline_s: float | None,
) -> list[tuple[bool, Any]]:
    """The ``threads`` backend: one OS thread per rank, each holding the
    world object itself (the world enforces ``deadline_s`` from inside
    every blocking call, so there is nothing to police from here)."""
    outcomes: list[Any] = [None] * world.size

    def runner(rank: int) -> None:
        outcomes[rank] = _run_rank(world, rank, fn, args)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank{r}", daemon=True)
        for r in range(world.size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def _run_rank(
    world: Any,
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
) -> tuple[bool, Any]:
    """Run ``fn(comm, *args)`` as ``rank`` of ``world`` and classify how it
    ended: ``(True, return value)`` — for a simulated crash the
    :class:`RankDied` itself — or ``(False, exception)``.

    The one place a rank's end is handled, on both backends: ``world`` is
    the world object under ``threads`` and its rank-side facade under
    ``procs``; the thread stores the outcome, the child process pickles it.
    """
    try:
        comm = Communicator(world, rank)
        value = fn(comm, *args)
        _check_pending(comm, rank)
        return True, value
    except RankDied as exc:
        # A simulated node crash, not a program error: record the death
        # in the world's epitaph channel so survivors observe it as a
        # PeerFailure, and keep the world alive.  The dead rank's
        # "result" is its epitaph; pending requests are expected (the
        # crash interrupted it mid-flight) and are not checked.
        try:
            world.flight.for_rank(rank).record("rank.died", reason=str(exc))
            world.flight.dump(f"rank {rank} died: {exc}", key=("rank-died", rank))
            world.mark_dead(rank, str(exc))
        except Exception:
            # The outcome must reach the launcher even when the world cannot
            # be told (under ``procs``: the parent already hung up).
            pass
        return True, exc
    except MPIAbort as exc:
        # Secondary failure caused by another rank's abort.
        return False, exc
    except BaseException as exc:  # noqa: BLE001 - handed to the launcher, which raises RankFailed
        try:
            world.flight.for_rank(rank).record(
                "rank.failed", error=type(exc).__name__, detail=str(exc)
            )
            world.flight.dump(
                f"rank {rank} raised {type(exc).__name__}",
                key=("abort", type(exc).__name__),
                extra={"rank": rank, "error": str(exc)},
            )
            world.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
        except Exception:
            pass  # as above
        return False, exc


def _check_pending(comm: Communicator, rank: int) -> None:
    """Warn about non-blocking requests a rank left un-waited at exit.

    A pending request means a message sits stranded in a mailbox where a
    later wildcard receive could steal it — the SPMD002 lint hazard,
    checked dynamically.
    """
    pending = comm.pending_requests()
    if not pending:
        return
    detail = ", ".join(
        f"{type(r).__name__}(source={getattr(r, 'source', '?')}, "
        f"tag={getattr(r, 'tag', '?')})"
        for r in pending[:4]
    )
    message = (
        f"rank {rank} finished with {len(pending)} pending non-blocking "
        f"request(s) [{detail}{', ...' if len(pending) > 4 else ''}]; "
        "complete every isend/irecv with wait()/waitall"
    )
    warnings.warn(message, RuntimeWarning, stacklevel=2)
