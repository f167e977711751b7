"""Elastic training: failure detection, shard recovery, and rank-loss
tolerant PLS training.

The paper's exchange machinery assumes a fixed set of ``M`` workers; this
package removes that assumption.  The MPI layer's epitaph channel
(:meth:`repro.mpi.World.mark_dead`, :class:`repro.mpi.PeerFailure`,
:meth:`repro.mpi.Communicator.shrink`) detects dead ranks; the
:class:`ReplicaLedger` tracks which rank holds every sample across
exchanges; :class:`ShardRecovery` re-homes a dead rank's samples onto the
survivors (cold exchange replicas first, source-dataset re-read as the PFS
fallback) under the re-based ``(1+Q)·N/(M-1)`` storage bound; and the
lifecycle loop ties it together: copy the replica state at each epoch
boundary, catch the failure, shrink, recover, redo the epoch over ``M-1``
workers — with zero sample loss.

The same loop closes the circle from *degrade* to *heal*:
:class:`RankRejoin` migrates shards back toward ``N/M`` when a dead rank
returns through :meth:`repro.mpi.Communicator.expand` (the JOIN
handshake + deterministic :func:`plan_rebalance`).  Recovery and rejoin
plan differently but move samples through one executor
(:func:`repro.elastic.migration.migrate`).  :func:`run_lifecycle` — the
one failure-aware launcher — drives the whole sequence: detect, shrink,
continue degraded, checkpoint, crash/restart (or resume) from the latest
complete job snapshot, rejoin, rebalance, verify.  :func:`repro.faults.run_chaos_train`
composes it with transient-fault injection under one
:class:`~repro.faults.FaultProfile`.

Failure schedules for tests/benchmarks come from :class:`FailurePlan`
(``"1@2:mid_exchange"`` kills rank 1 midway through epoch 2).
"""

from .failure import FailureEvent, FailurePlan
from .ledger import ReplicaLedger, reconstruct_ledger
from .lifecycle import Crashed, LifecyclePlan, LifecycleResult, run_lifecycle
from .recovery import RecoveryReport, ShardRecovery
from .rejoin import RankRejoin, RejoinReport, join_handshake, plan_rebalance, rebalance_targets

__all__ = [
    "FailureEvent",
    "FailurePlan",
    "ReplicaLedger",
    "reconstruct_ledger",
    "RecoveryReport",
    "ShardRecovery",
    "RankRejoin",
    "RejoinReport",
    "join_handshake",
    "plan_rebalance",
    "rebalance_targets",
    "Crashed",
    "LifecyclePlan",
    "LifecycleResult",
    "run_lifecycle",
]
