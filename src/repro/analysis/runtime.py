"""Runtime SPMD verification: the dynamic half of ``repro.analysis``.

:class:`CheckedCommunicator` is a drop-in :class:`~repro.mpi.Communicator`
(enable it with ``run_spmd(fn, size, verify=True)``) that pays one extra
rendezvous per collective to check, *before* executing it, that every rank
is entering the same call:

* **Collective-sequence check** — all ranks exchange a signature
  ``(op, payload type/shape/dtype)`` for their next collective.  If the op
  names differ (one rank in ``barrier``, another in ``allreduce``) the run
  would deadlock or silently mis-fold; instead every rank raises a
  :class:`~repro.mpi.errors.VerificationError` naming the diverging rank
  and both call signatures.
* **Payload-shape check** — for ``allreduce``/``alltoall`` (whose fold and
  matching need structurally identical contributions) shape/dtype
  signatures must also agree.
* **Shared-stream check** — :meth:`CheckedCommunicator.assert_identical`
  asserts a value is bit-identical on every rank.  The exchange
  :class:`~repro.shuffle.scheduler.Scheduler` calls it on each epoch's
  destination permutation, which is exactly Algorithm 1's precondition
  (and the gradient-equivalence precondition of §IV-A): all workers must
  draw the same destination permutation from the shared seed.

The launcher additionally checks, as each rank's function returns, that no
non-blocking request was left pending (``Communicator.pending_requests``)
— the leak :mod:`repro.analysis.rules` looks for statically (SPMD002),
verified dynamically.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any

import numpy as np

from repro.mpi.communicator import Communicator
from repro.mpi.errors import VerificationError

__all__ = ["CheckedCommunicator", "payload_signature", "fingerprint"]

#: Collectives whose contributions must be structurally identical on every
#: rank: allreduce folds elementwise, alltoall matches per-slot.
_SHAPE_STRICT_OPS = frozenset({"allreduce", "alltoall"})


def payload_signature(obj: Any) -> tuple:
    """A cheap structural summary: type plus shape/dtype (arrays) or
    length (containers).  Used to compare collective contributions across
    ranks without hashing payload bytes on the hot path."""
    if obj is None:
        return ("none",)
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, str(obj.dtype))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, len(obj))
    if isinstance(obj, dict):
        return ("dict", len(obj))
    return (type(obj).__name__,)


def fingerprint(obj: Any) -> str:
    """A content digest strong enough to decide bit-identity across ranks.

    ndarrays hash dtype + shape + raw bytes; other objects fall back to
    ``repr`` (fine for the permutations, seeds and small metadata this is
    used on — not a general serialisation).
    """
    h = hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


class CheckedCommunicator(Communicator):
    """A :class:`Communicator` that cross-checks collectives across ranks.

    Every collective costs one extra rendezvous (the signature exchange),
    so this is a debugging/CI tool, not the production path — which is
    why ``run_spmd`` gates it behind ``verify=True``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._verify_gen = itertools.count()

    # ------------------------------------------------------------ sequencing
    def _rendezvous(self, op: str, contribution: Any, fold=None) -> Any:
        gen = next(self._verify_gen)
        sig = (op, payload_signature(contribution))
        key = ("spmd-verify", self.context_id, gen, self.size)
        slots = self.world.rendezvous(key, self._local_rank, sig, group=self.group)
        self._check_signatures(gen, sig, slots)
        return super()._rendezvous(op, contribution, fold)

    def _check_signatures(
        self, gen: int, own: tuple, slots: dict[int, Any]
    ) -> None:
        op = own[0]
        reference = slots[0]
        divergent = sorted(r for r, s in slots.items() if s[0] != reference[0])
        if divergent:
            calls = ", ".join(
                f"rank {r}: {slots[r][0]}({_fmt_sig(slots[r][1])})"
                for r in sorted(slots)
            )
            raise VerificationError(
                f"collective sequence diverged at call #{gen}: rank(s) "
                f"{divergent} entered a different collective than rank 0 "
                f"[{calls}] — without verification this run would deadlock "
                "or mis-match payloads"
            )
        if op in _SHAPE_STRICT_OPS:
            mismatched = sorted(r for r, s in slots.items() if s[1] != reference[1])
            if mismatched:
                shapes = ", ".join(
                    f"rank {r}: {_fmt_sig(slots[r][1])}" for r in sorted(slots)
                )
                raise VerificationError(
                    f"'{op}' contributions disagree in shape/dtype at call "
                    f"#{gen}: rank(s) {mismatched} differ from rank 0 "
                    f"[{shapes}]"
                )

    # ------------------------------------------------------ shared-stream law
    def assert_identical(self, value: Any, label: str = "value") -> None:
        """Assert ``value`` is bit-identical on every rank (collective).

        This is Algorithm 1's correctness precondition made executable:
        the destination permutation (and anything else derived from the
        *shared* seed stream) must be the same object, bit for bit, on
        all ranks — otherwise sends and receives silently mismatch.
        """
        own = (label, fingerprint(value))
        slots = self._rendezvous("verify.identical", own)
        reference = slots[0]
        divergent = sorted(r for r, v in slots.items() if v != reference)
        if divergent:
            labels = {v[0] for v in slots.values()}
            what = label if len(labels) == 1 else f"one of {sorted(labels)}"
            raise VerificationError(
                f"shared value '{what}' is not identical across ranks: "
                f"rank(s) {divergent} disagree with rank 0 — every rank "
                "must derive it from the shared seed stream "
                "(utils.rng.SeedTree.shared), not a per-rank source"
            )


def _fmt_sig(sig: tuple) -> str:
    return ", ".join(str(part) for part in sig)
