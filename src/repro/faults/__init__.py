"""Deterministic chaos injection for the PLS stack.

The paper's exchange path lives on flaky substrates — lossy interconnects,
stragglers, parallel file systems that time out or return torn reads.  This
package generalises the fail-stop schedule of :mod:`repro.elastic`: a
:class:`FaultProfile` also describes *transient* faults (message corruption,
drops, delays, duplicates, flaky/torn storage reads, per-rank slowdown) and
a :class:`ChaosEngine` injects them deterministically from a seed, so the
same seed always produces the same fault sequence — and, because every
fault is recoverable by the defensive machinery in ``mpi``/``shuffle``
(checksummed exchange with NACK/resend, retrying storage I/O, deadline-based
degraded-Q), the same final model.

Division of labour with :mod:`repro.elastic`: elastic handles *fail-stop*
(a rank or the whole job dies — shrink, recover shards, retrain, re-admit,
restart); faults handles *transient* (the rank and its data survive, the
operation is retried/resent until it succeeds).  One profile drives both:
:func:`repro.elastic.run_lifecycle`, the one supervised launcher, reads its
``kill:`` / ``rejoin:`` / ``crash:`` clauses as the failure schedule and
injects the rest through a :class:`ChaosEngine`.
"""

from .engine import ChaosEngine, ChaosWorld
from .profile import FaultClause, FaultProfile

__all__ = [
    "ChaosEngine",
    "ChaosWorld",
    "FaultClause",
    "FaultProfile",
]
