"""The distributed synchronous-SGD training loop (one rank's view).

Combines the pieces exactly as the paper's Figure 3 script does: a
shuffling strategy supplies each epoch's local data, the model replicas
stay consistent through an initial broadcast plus per-iteration gradient
allreduce (Eq. 1), the strategy's ``on_iteration`` hook overlaps the PLS
sample exchange with compute (Figure 4), and validation accuracy is
measured per epoch — the Y axis of every accuracy figure in the paper.

:func:`train_one_epoch` is the only place that loop is written: the plain
:func:`train_worker` below and the failure-aware lifecycle loop
(:mod:`repro.elastic`) both drive it, differing only in what they do
between epochs and on a :class:`~repro.mpi.errors.PeerFailure`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.mpi.communicator import Communicator
from repro.nn import functional as F
from repro.nn.metrics import RunningAverage
from repro.nn.models import build_model
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.obs.telemetry import drain_pending, push_metrics
from repro.shuffle.base import ShuffleStrategy

from .distributed import allreduce_batchnorm_stats, allreduce_gradients, broadcast_model
from .evaluate import evaluate
from .history import EpochRecord, RunHistory

__all__ = ["TrainConfig", "build_replica", "train_one_epoch", "train_worker"]

#: SGD momentum and L2 weight decay of every run (Goyal et al.'s recipe).
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run.

    Mirrors the paper's §V-C regime ("we do not change the base learning
    rate and the number of epochs"): per-worker batch size ``batch_size``
    and a constant ``base_lr`` under momentum SGD with L2 weight decay
    (:data:`MOMENTUM`, :data:`WEIGHT_DECAY`).
    """

    model: str = "mlp"
    in_shape: tuple[int, ...] = (32,)
    num_classes: int = 8
    epochs: int = 15
    batch_size: int = 16
    base_lr: float = 0.05
    norm: str | None = None
    partition: str = "random"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def build_replica(config: TrainConfig, comm: Communicator | None = None, *, model=None):
    """This rank's ``(model, optimizer)`` for ``config``.

    With ``comm``, rank 0's weights (``model``'s, if given) are broadcast.
    Without it nothing is communicated: the caller splices snapshot or
    handshake state into the returned objects.
    """
    if model is None:
        model = build_model(
            config.model,
            in_shape=config.in_shape,
            num_classes=config.num_classes,
            seed=config.seed,
            norm=config.norm,
        )
    if comm is not None:
        broadcast_model(model, comm)
    optimizer = SGD(
        model.flatten(), config.base_lr, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY
    )
    return model, optimizer


def train_one_epoch(
    comm: Communicator,
    config: TrainConfig,
    strategy: ShuffleStrategy,
    model,
    optimizer,
    epoch: int,
    val_X: np.ndarray,
    val_y: np.ndarray,
    *,
    failure_point: Callable[[str], None] | None = None,
) -> EpochRecord:
    """One epoch of the Figure-3 loop on this rank.

    ``failure_point`` is called with each of
    :data:`repro.faults.profile.POINTS` as the epoch reaches it; a
    :meth:`~repro.faults.FaultProfile.check` raises
    :class:`~repro.mpi.errors.RankDied` there on a doomed rank.

    Phase regions follow the Figure 10 accounting (io / exchange / fw_bw /
    ge_wu).  ``comm.flight`` accumulates them always-on — the epoch's
    totals are its ``epoch.phases`` event and the ``phase.*_s`` series of
    the telemetry push — and, in a traced run, records each region as a
    ``phase.<name>`` event, so the Gantt and the totals are one
    measurement; the allreduce's straggler wait is the ``coll.allreduce``
    event under ``ge_wu``.
    """
    check = failure_point or _no_failure
    flight = comm.flight
    # Per-epoch regions only a traced run records.
    detail = flight.span if flight.detail else _no_span
    # Totals are this epoch's: an attempt a PeerFailure cut short left its
    # regions behind.
    flight.take_phases()
    check("begin")
    with detail("train.epoch", epoch=epoch, lr=optimizer.lr):
        with flight.phase("exchange"):
            strategy.begin_epoch(epoch)
        loader = strategy.epoch_loader(epoch, config.batch_size)
        # Every rank must run the same number of iterations or the gradient
        # allreduce deadlocks; take the collective minimum.
        iters = comm.allreduce(len(loader), op=min)
        loss_avg = RunningAverage()
        samples = 0
        model.train()
        it = iter(loader)
        midpoint = iters // 2
        for i in range(iters):
            if i == midpoint:
                check("mid_exchange")
            with flight.phase("io"):
                xb, yb = next(it)
            with flight.phase("fw_bw"):
                logits = model(Tensor(np.asarray(xb, dtype=np.float32)))
                loss = F.cross_entropy(logits, yb)
                model.zero_grad()
                loss.backward()
            with flight.phase("ge_wu"):
                allreduce_gradients(model, comm)
                optimizer.step()
            with flight.phase("exchange"):
                strategy.on_iteration()
            loss_avg.update(loss.item(), weight=len(yb))
            samples += len(yb)
        check("end")
        with flight.phase("exchange"):
            strategy.end_epoch()

        with flight.phase("ge_wu"):
            allreduce_batchnorm_stats(model, comm)
        # Replicas are identical after the reduce, so every rank validates
        # a stride of the set and the counts are summed below.
        with detail("train.validate"):
            correct = _validate_stride(
                model, val_X, val_y, comm.rank, comm.size, config.batch_size
            )
        # Always-on telemetry: record the epoch's phase breakdown as one
        # event and push it (plus local loss and exchange health)
        # to the aggregator.  Pushed *before* the epoch's last allreduce:
        # that collective is a barrier, so rank 0 passing it proves every
        # peer's push of this epoch is already deposited.  The aggregator
        # is world-owned, so the series survives a later shrink.
        phases = flight.take_phases()
        flight.record("epoch.phases", epoch=epoch, **phases)
        metrics = {f"phase.{k}_s": v for k, v in phases.items()}
        metrics["train.loss"] = loss_avg.value
        sched = getattr(strategy, "scheduler", None)
        if sched is not None:
            metrics["exchange.q_deficit"] = sched.q_deficit
        metrics["pool.in_use"] = comm.pool.in_use()
        push_metrics(comm, epoch, metrics)
        # One collective for the epoch's three sums (float64 holds the
        # integer counts exactly).
        loss_sum, total_samples, total_correct = comm.allreduce(
            np.array([loss_avg.value, samples, correct], dtype=np.float64)
        ).tolist()
    return EpochRecord(
        epoch=epoch,
        train_loss=loss_sum / comm.size,
        val_accuracy=int(total_correct) / len(val_y),
        lr=optimizer.lr,
        samples_seen=int(total_samples),
    )


def _validate_stride(
    model, val_X: np.ndarray, val_y: np.ndarray, rank: int, size: int, batch_size: int
) -> int:
    """How many of ``val[rank::size]`` the model gets right (an empty
    stride — fewer validation samples than ranks — counts zero).  The epoch
    validates in training-sized batches: every rank is in here at once, and
    the working set of a training step is what they can all hold."""
    if len(val_y) == 0:
        raise ValueError("empty validation set")
    X, y = val_X[rank::size], val_y[rank::size]
    if len(y) == 0:
        return 0
    accuracy, _loss = evaluate(model, X, y, batch_size=batch_size)
    # ``evaluate`` reports the ratio; times the count it is the integer again.
    return round(accuracy * len(y))


def _no_failure(point: str) -> None:
    """The default ``failure_point``: nothing is scheduled to die."""


def _no_span(kind: str, **fields) -> nullcontext:
    """What ``train_one_epoch`` opens in place of a span in an untraced run."""
    return nullcontext()


def train_worker(
    comm: Communicator,
    config: TrainConfig,
    strategy: ShuffleStrategy,
    train_dataset: Dataset,
    labels: np.ndarray,
    val_X: np.ndarray,
    val_y: np.ndarray,
    *,
    model=None,
    return_model: bool = False,
):
    """Run the full training on this rank; returns the shared history.

    Every rank returns an identical :class:`RunHistory` (metrics are
    collectively reduced), so callers can read any rank's result.

    ``model`` supplies pre-initialised weights (e.g. a transferred backbone
    for the Figure 8 fine-tuning protocol); rank 0's copy is broadcast
    either way.  With ``return_model=True`` the result is
    ``(history, model)``.
    """
    model, optimizer = build_replica(config, comm, model=model)
    strategy.setup(
        comm, train_dataset,
        labels=labels, partition=config.partition, seed=config.seed,
    )

    history = RunHistory(strategy=strategy.name, workers=comm.size)
    for epoch in range(config.epochs):
        history.add(
            train_one_epoch(comm, config, strategy, model, optimizer, epoch, val_X, val_y)
        )
    # Final drain: rank 0's per-epoch drain ran *before* the last epoch's
    # barrier, so the peers' final pushes are still queued.  They are all
    # deposited by now (each peer pushed before entering that barrier).
    if comm.rank == 0:
        drain_pending(comm)
    history.stats = strategy.stats()
    if return_model:
        return history, model
    return history
