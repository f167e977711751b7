"""Elastic training: failure detection, shard recovery, and rank-loss
tolerant PLS training.

The paper's exchange machinery assumes a fixed set of ``M`` workers; this
package removes that assumption.  The MPI layer's epitaph channel
(:meth:`repro.mpi.World.mark_dead`, :class:`repro.mpi.PeerFailure`) detects
dead ranks, and one regroup rendezvous changes membership in either
direction (:meth:`repro.mpi.Communicator.shrink`, ``expand``); the
:class:`ReplicaLedger` tracks which rank holds every sample across
exchanges; and :func:`rebalance`, one planner and one executor for a shrink
and an expand alike, puts back the paper's steady state after each change:
every sample hot on exactly one live rank, each holding its
:func:`rebalance_targets` share of ``N/M``, so the ``(1+Q)·N/M``
storage bound holds for the new ``M``.  A dead rank's samples are re-read from the
source dataset (the PFS holds every original); a rejoined rank is refilled
from the survivors' newest samples.

:func:`run_lifecycle` — the one supervised launcher — drives the whole
sequence: detect, shrink, continue degraded, checkpoint, crash/restart (or
resume) from the latest complete job snapshot, rejoin, rebalance, verify.
Its schedule is a :class:`~repro.faults.FaultProfile`: the ``kill`` /
``rejoin`` / ``crash`` clauses (``kill:rank=1,epoch=2,point=mid_exchange``
kills rank 1 midway through epoch 2), and transient faults injected in the
same run.
"""

from .ledger import ReplicaLedger, reconstruct_ledger
from .lifecycle import Crashed, LifecycleResult, run_lifecycle
from .migration import RebalanceReport, plan_moves, rebalance, rebalance_targets

__all__ = [
    "ReplicaLedger",
    "reconstruct_ledger",
    "RebalanceReport",
    "plan_moves",
    "rebalance",
    "rebalance_targets",
    "Crashed",
    "LifecycleResult",
    "run_lifecycle",
]
