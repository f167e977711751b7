"""Partial local shuffling (PLS): the paper's contribution.

Each worker keeps a shard like local shuffling, but before/during each
epoch it exchanges a fraction Q of its shard with seed-synchronised random
peers (Algorithm 1 via :class:`~repro.shuffle.scheduler.Scheduler`) and
locally re-shuffles the result.  Q=0 degenerates to local shuffling, Q=1 to
a full exchange.  The exchange is overlapped with the training iterations
of the running epoch (Figure 4): samples sent during epoch *e* leave the
shard, and samples received during epoch *e* join it, at the *end* of the
epoch — so epoch *e+1* trains on the refreshed shard.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.mpi.communicator import Communicator

from .local import LocalShuffle
from .scheduler import Scheduler

__all__ = ["PartialLocalShuffle"]


class PartialLocalShuffle(LocalShuffle):
    """Local shard + per-epoch partial exchange of fraction ``q``.

    Parameters
    ----------
    q:
        Exchange fraction Q in [0, 1] (the paper's ``partial-x``).  The
        exchange is chunked across training iterations via
        :meth:`on_iteration` (Figure 4), Q*b samples per iteration for
        ``epoch_loader``'s batch size b.
    ledger:
        Optional :class:`~repro.elastic.ReplicaLedger` the scheduler commits
        every epoch's sample movements to (see :class:`Scheduler`).
    exchange_deadline_s / resend_timeout_s:
        Transient-fault controls forwarded to :class:`Scheduler`: the
        per-epoch exchange deadline that turns stragglers into graceful
        Q-degradation, and the resend timing.
    """

    def __init__(
        self,
        q: float,
        *,
        ledger=None,
        exchange_deadline_s: float | None = None,
        resend_timeout_s: float = 0.25,
    ) -> None:
        super().__init__()
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"exchange fraction q must be in [0,1], got {q}")
        self.q = q
        self.ledger = ledger
        self.exchange_deadline_s = exchange_deadline_s
        self.resend_timeout_s = resend_timeout_s
        self.name = f"partial-{q:g}"
        self.scheduler: Scheduler | None = None
        self._epoch_active = False

    def setup(
        self,
        comm: Communicator,
        dataset: Dataset,
        *,
        labels: np.ndarray | None = None,
        partition: str = "random",
        seed: int = 0,
    ) -> None:
        """Stage this worker's initial data distribution."""
        super().setup(comm, dataset, labels=labels, partition=partition, seed=seed)
        if self.ledger is not None:
            self.ledger.seed_partition(comm, self.storage.hot_gids())
        self.scheduler = self._make_scheduler(comm)

    def _make_scheduler(self, comm: Communicator) -> Scheduler:
        return Scheduler(
            self.storage,
            comm,
            fraction=self.q,
            seed=self.seed,
            ledger=self.ledger,
            deadline_s=self.exchange_deadline_s,
            resend_timeout_s=self.resend_timeout_s,
        )

    # ------------------------------------------------------------ epoch hooks
    def begin_epoch(self, epoch: int) -> None:
        """Per-epoch preparation."""
        if self.scheduler is None:
            raise RuntimeError("call setup() first")
        if self._epoch_active:
            raise RuntimeError("previous epoch not ended; call end_epoch() first")
        self.scheduler.scheduling(epoch)
        self._epoch_active = True

    def epoch_loader(self, epoch: int, batch_size: int) -> DataLoader:
        """Batches this worker trains on during the epoch."""
        if self.scheduler is not None:
            self.scheduler.batch_size = batch_size
        return super().epoch_loader(epoch, batch_size)

    def on_iteration(self) -> None:
        """Post this iteration's Q*b exchange rounds (overlap with FW+BW)."""
        if self._epoch_active:
            self.scheduler.communicate_chunk()

    def end_epoch(self) -> None:
        """Finish the exchange and refresh the shard for the next epoch."""
        if not self._epoch_active:
            raise RuntimeError("begin_epoch() was not called")
        recv_before = self.scheduler.total_recv_samples
        send_reqs, recv_reqs = self.scheduler.communicate()  # post any remainder
        self.scheduler.synchronize(send_reqs, recv_reqs)
        self.scheduler.clean_local_storage()
        self.remote_reads += self.scheduler.total_recv_samples - recv_before
        self._epoch_active = False

    # --------------------------------------------------------------- elastic
    def abort_epoch(self) -> None:
        """Abandon the in-flight epoch after a peer failure: cancel the
        partially posted exchange and reset so ``begin_epoch`` can run again
        (typically on a shrunk communicator after :meth:`attach_comm`)."""
        if self.scheduler is not None:
            self.scheduler.abort_exchange()
        self._epoch_active = False

    def attach_comm(self, comm: Communicator) -> None:
        """Re-bind the strategy to a (typically shrunk) communicator.

        The storage area, ledger and accumulated traffic statistics carry
        over; only the scheduler is rebuilt, so subsequent exchange plans
        are drawn over the new communicator's size."""
        if self._epoch_active:
            raise RuntimeError("abort_epoch() before attaching a new communicator")
        old = self.scheduler
        self.comm = comm
        self.scheduler = self._make_scheduler(comm)
        if old is not None:
            # Run-owned state survives the re-bind: the Q-deficit is owed by
            # the *run*, not by one communicator incarnation, and the
            # counters must keep aggregating across recoveries.  The field
            # set is Scheduler.STATE_FIELDS — the same one a full-job
            # snapshot persists across a crash/restart.
            self.scheduler.load_state_dict(old.state_dict())

    def adopt(
        self,
        comm: Communicator,
        *,
        storage,
        seed: int = 0,
        scheduler_state: dict | None = None,
    ) -> None:
        """Bind to ``comm`` with externally reconstructed state.

        Used on crash-restart (storage rebuilt from a snapshot manifest)
        and by a rejoining rank (storage handed over in the JOIN
        handshake): like :meth:`setup` minus the partitioning, plus an
        optional restore of run-owned scheduler state (Q-deficit, traffic
        totals) in the shape of :meth:`Scheduler.state_dict` — the fields
        it names replace the fresh scheduler's, so a joiner passes only
        the replicated ones.  The ledger this strategy was constructed
        with is used as-is — callers restore/seed it before adopting.
        """
        super().adopt(comm, storage=storage, seed=seed)
        self.scheduler = self._make_scheduler(comm)
        if scheduler_state is not None:
            self.scheduler.load_state_dict(
                {**self.scheduler.state_dict(), **scheduler_state}
            )
        self._epoch_active = False

    # ------------------------------------------------------------- accounting
    def storage_samples(self) -> int:
        """Peak is shard + in-flight receives: (1+Q) * N/M (§III-A)."""
        return max(len(self.storage), self.storage.peak_count)

    def stats(self) -> dict:
        """Accounting snapshot for benchmarks."""
        out = super().stats()
        if self.scheduler is not None:
            out.update(
                sent_samples=self.scheduler.total_sent_samples,
                recv_samples=self.scheduler.total_recv_samples,
                kept_samples=self.scheduler.total_kept_samples,
                sent_bytes=self.scheduler.total_sent_bytes,
                **self.scheduler.fault_stats(),
            )
        return out


def strategy_from_name(name: str):
    """Parse "global" / "local" / "partial-<q>" into a strategy instance."""
    from .global_ import GlobalShuffle

    if name == "global":
        return GlobalShuffle()
    if name == "local":
        return LocalShuffle()
    if name.startswith("partial-"):
        q = float(name.split("-", 1)[1])
        return PartialLocalShuffle(q)
    raise ValueError(f"unknown strategy {name!r}; expected global/local/partial-<q>")
