"""Exception types for the in-process MPI substrate."""

from __future__ import annotations

__all__ = [
    "MPIError",
    "MPIAbort",
    "MPITimeout",
    "RankFailed",
    "RankDied",
    "PeerFailure",
    "UnrecoveredFaultError",
]


class MPIError(RuntimeError):
    """Base class for all simulated-MPI errors."""


class MPIAbort(MPIError):
    """The world was aborted (typically because another rank raised)."""


class MPITimeout(MPIError):
    """A blocking operation exceeded the world's deadline."""


class UnrecoveredFaultError(MPIError):
    """A transient-fault recovery protocol exhausted its attempt budget.

    Raised by the reliable exchange when a round could not be verified (or
    acknowledged) within ``max_attempts`` NACK/resend cycles — i.e. the
    fault stopped looking transient.  Distinct from :class:`PeerFailure`:
    the peer is *alive* but the channel (or its data) stayed bad, so the
    elastic fail-stop machinery deliberately does not engage.
    """


class RankDied(MPIError):
    """A rank terminated *as a fault*, not as an error in the program.

    Raising this inside an SPMD function models a node crash in an elastic
    run: the launcher marks the rank dead in the :class:`~repro.mpi.World`
    (its epitaph channel) instead of aborting the whole world, so the
    surviving ranks can observe the death via :class:`PeerFailure`, call
    :meth:`~repro.mpi.Communicator.shrink` and keep going.  In a
    non-elastic program a dead peer still surfaces promptly: any matched
    receive from, or collective with, the dead rank raises
    :class:`PeerFailure` on the survivors.
    """

    def __init__(self, reason: str = "rank died"):
        self.reason = reason
        super().__init__(reason)


class PeerFailure(MPIError):
    """An operation cannot complete because a peer rank is dead.

    Raised on the *surviving* side: a blocking receive matched to a dead
    source with no buffered message left, or a collective rendezvous one of
    whose participants died before depositing.  ``rank`` is the dead peer's
    world rank; ``epitaph`` its recorded reason, if any.
    """

    def __init__(self, rank: int, epitaph: str | None = None, op: str = ""):
        self.rank = rank
        self.epitaph = epitaph
        self.op = op
        where = f" during {op}" if op else ""
        why = f" ({epitaph})" if epitaph else ""
        super().__init__(f"peer rank {rank} is dead{where}{why}")

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``, mangling ``rank``; reconstruct from
        # the real constructor arguments instead — these exceptions cross
        # process boundaries under the ``procs`` backend.
        return (PeerFailure, (self.rank, self.epitaph, self.op))


class RankFailed(MPIError):
    """Raised by the launcher when one or more ranks terminated with an error.

    ``failures`` maps rank -> the exception raised on that rank.
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        detail = "; ".join(
            f"rank {r}: {type(e).__name__}: {e}" for r, e in sorted(self.failures.items())
        )
        super().__init__(f"{len(self.failures)} rank(s) failed: {detail}")

    def __reduce__(self):
        # See PeerFailure.__reduce__: reconstruct from the constructor
        # arguments so a pickle round-trip preserves ``failures``.
        return (RankFailed, (self.failures,))
