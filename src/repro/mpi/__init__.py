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

Rank *hosting* is pluggable (:mod:`repro.mpi.backends`): the default
``threads`` backend runs ranks as OS threads; ``run_spmd(..., backend="procs")``
runs them as forked processes with a shared-memory transport for real-core
parallelism.  See ``docs/backends.md``.
"""

from .backends import (
    DEFAULT_BACKEND,
    REPRO_BACKEND_ENV,
    available_backends,
    create_world,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from .codec import PackedBatch, SampleBlock, pack_samples, unpack_samples
from .communicator import ANY_SOURCE, ANY_TAG, Communicator
from .errors import (
    MPIAbort,
    MPIError,
    MPITimeout,
    PeerFailure,
    RankDied,
    RankFailed,
    VerificationError,
)
from .launcher import SpmdResult, run_spmd
from .message import Message, Status, payload_nbytes
from .pool import BufferPool, PoolBuffer
from .request import RecvRequest, Request, SendRequest, testall, waitall
from .shm_pool import SharedSegmentPool, ShmPoolBuffer
from .tags import TagRange
from .tags import lookup as lookup_tag
from .tags import ranges as tag_ranges
from .world import World

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "DEFAULT_BACKEND",
    "REPRO_BACKEND_ENV",
    "available_backends",
    "create_world",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "SharedSegmentPool",
    "ShmPoolBuffer",
    "BufferPool",
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
    "VerificationError",
    "SpmdResult",
    "run_spmd",
    "Message",
    "Status",
    "payload_nbytes",
    "RecvRequest",
    "Request",
    "SendRequest",
    "testall",
    "waitall",
    "TagRange",
    "tag_ranges",
    "lookup_tag",
    "World",
]
