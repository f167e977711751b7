"""Distributed synchronous-SGD primitives over the simulated MPI.

Equation 1 of the paper: every iteration each worker computes the gradient
over its local minibatch, the local gradients are averaged across workers,
and all replicas apply the same update.  These helpers implement the two
collective steps that make the replicas consistent: the initial state
broadcast and the per-iteration gradient allreduce.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.communicator import Communicator
from repro.nn.module import Module

__all__ = ["broadcast_model", "allreduce_gradients", "allreduce_batchnorm_stats"]


def broadcast_model(model: Module, comm: Communicator, root: int = 0) -> None:
    """Replicate root's parameters and buffers to every rank.

    The paper's equivalence proof assumes all workers "initialize the
    weights with the same random seed" (§IV-A); broadcasting makes that an
    invariant rather than a convention.
    """
    state = model.state_dict() if comm.rank == root else None
    state = comm.bcast(state, root=root)
    if comm.rank != root:
        model.load_state_dict(state)


def allreduce_gradients(model: Module, comm: Communicator) -> None:
    """Average parameter gradients across all ranks (Eq. 1's 1/M sum).

    The gradients already live in the model's one flat buffer
    (:meth:`~repro.nn.module.Module.flatten`), so one allreduce carries the
    whole model — the bucketing trick real frameworks use to avoid
    per-tensor latency, with no gather before it and no scatter after.
    """
    grads = model.flatten().grad
    if grads is None:
        raise ValueError("no gradients to reduce; run backward() first")
    np.divide(comm.allreduce(grads), comm.size, out=grads)


def allreduce_batchnorm_stats(model: Module, comm: Communicator) -> None:
    """Average BatchNorm running statistics across ranks before evaluation.

    Under local/partial-local shuffling each worker's running stats are
    biased toward its shard (§IV-A-1).  Synchronising them before
    validation mirrors what distributed frameworks do when checkpointing
    rank 0's model after allreduce-based BN-sync.  The statistics are the
    model's float32 buffers, one flat array: one allreduce, none for a
    model without any.
    """
    stats = model.flatten().stats
    if stats.size:
        np.divide(comm.allreduce(stats), comm.size, out=stats)
