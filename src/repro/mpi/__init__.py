"""In-process MPI substrate.

The paper implements its sample exchange with mpi4py (``MPI_Isend`` /
``MPI_Irecv`` / collectives).  This package provides the same semantics
without an MPI installation: ranks are threads sharing a
:class:`~repro.mpi.world.World` of mailboxes, and
:func:`~repro.mpi.launcher.run_spmd` plays the role of ``mpiexec``.

Quick example::

    from repro.mpi import run_spmd

    def main(comm):
        token = comm.allreduce(comm.rank)   # sum of ranks
        return token

    results = run_spmd(main, size=4)
    assert list(results) == [6, 6, 6, 6]

Where ranks execute is the backend: the default ``threads`` backend runs
them as OS threads; ``run_spmd(..., backend="procs")`` runs them as forked
processes that reach the same world over a pipe, payloads in shared memory
— for a rank that can really be killed and for per-process RSS, not for
speed.  See ``docs/backends.md``.
"""

from .codec import PackedBatch, SampleBlock, pack_samples, unpack_samples
from .communicator import ANY_SOURCE, ANY_TAG, Communicator
from .errors import (
    MPIAbort,
    MPIError,
    MPITimeout,
    PeerFailure,
    RankDied,
    RankFailed,
)
from .launcher import (
    DEFAULT_BACKEND,
    REPRO_BACKEND_ENV,
    SpmdResult,
    resolve_backend_name,
    run_spmd,
)
from .message import Message, Status, payload_nbytes
from .pool import BufferPool, HeapAllocator, PoolBuffer
from .request import RecvRequest, Request, SendRequest, waitall
from .shm_pool import SegmentAllocator
from .tags import TagRange
from .tags import lookup as lookup_tag
from .world import World

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "DEFAULT_BACKEND",
    "REPRO_BACKEND_ENV",
    "resolve_backend_name",
    "BufferPool",
    "HeapAllocator",
    "SegmentAllocator",
    "PoolBuffer",
    "PackedBatch",
    "SampleBlock",
    "pack_samples",
    "unpack_samples",
    "Communicator",
    "MPIAbort",
    "MPIError",
    "MPITimeout",
    "PeerFailure",
    "RankDied",
    "RankFailed",
    "SpmdResult",
    "run_spmd",
    "Message",
    "Status",
    "payload_nbytes",
    "RecvRequest",
    "Request",
    "SendRequest",
    "waitall",
    "TagRange",
    "lookup_tag",
    "World",
]
