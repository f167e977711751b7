"""Elastic training: survive rank failures without losing samples.

:func:`elastic_train_worker` wraps the synchronous-SGD loop of
:func:`repro.train.trainer.train_worker` with a failure boundary.  Each
epoch starts by snapshotting the replicated state (model, optimizer) — an
in-memory checkpoint.  When a peer dies, every survivor observes a
:class:`~repro.mpi.errors.PeerFailure` on the next operation that needs the
dead rank; the handler then

1. shrinks the communicator over the survivors (ULFM-style consensus),
2. restores the epoch-start snapshot (survivors may be torn mid-epoch, but
   all of them identically — collectives complete on all ranks or none),
3. aborts the in-flight exchange (nothing was installed or evicted, so
   storage and ledger are exactly their epoch-start state),
4. runs :class:`~repro.elastic.ShardRecovery` to re-home the dead rank's
   samples onto survivors (cold replicas first, source dataset as the PFS
   fallback) under the re-based ``(1+Q)·N/(M-1)`` capacity bound,
5. re-binds the shuffling strategy to the shrunk communicator and redoes
   the epoch over ``M-1`` workers.

The failure schedule is injected via a :class:`~repro.elastic.FailurePlan`:
the doomed rank raises :class:`~repro.mpi.errors.RankDied`, which the
launcher records as a non-fatal death (the world's epitaph channel).

One failure at a time is supported end-to-end; a second failure during an
epoch is caught by the same handler on the next attempt, but a death during
*recovery itself* propagates (survivors re-raise and the run fails).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.data.dataset import Dataset
from repro.mpi.communicator import Communicator
from repro.mpi.errors import PeerFailure, RankDied
from repro.mpi.launcher import SpmdResult, run_spmd
from repro.obs.telemetry import drain_pending
from repro.shuffle.partial import PartialLocalShuffle
from repro.train.history import RunHistory
from repro.train.trainer import TrainConfig, build_replica, train_one_epoch

from .failure import FailurePlan
from .ledger import ReplicaLedger
from .recovery import RecoveryReport, ShardRecovery

__all__ = ["elastic_train_worker", "run_elastic", "ElasticRunResult"]


def _snapshot(model, optimizer) -> dict:
    """Deep-copy the replicated state (an in-memory epoch-start checkpoint)."""
    velocity = getattr(optimizer, "_velocity", None)
    return {
        "model": {k: np.copy(v) for k, v in model.state_dict().items()},
        "velocity": None
        if velocity is None
        else [None if v is None else v.copy() for v in velocity],
        "lr": optimizer.lr,
    }


def _restore(model, optimizer, snapshot: dict) -> None:
    model.load_state_dict({k: np.copy(v) for k, v in snapshot["model"].items()})
    if snapshot["velocity"] is not None and hasattr(optimizer, "_velocity"):
        optimizer._velocity = [
            None if v is None else v.copy() for v in snapshot["velocity"]
        ]
    optimizer.lr = snapshot["lr"]


def elastic_train_worker(
    comm: Communicator,
    config: TrainConfig,
    strategy: PartialLocalShuffle,
    train_dataset: Dataset,
    labels: np.ndarray,
    val_X: np.ndarray,
    val_y: np.ndarray,
    *,
    failure_plan: FailurePlan | None = None,
    model=None,
    return_model: bool = False,
    checkpoint_path=None,
    checkpoint_every: int = 0,
):
    """Run elastic training on this rank.

    Surviving ranks return the shared :class:`RunHistory` (its
    ``stats["recoveries"]`` lists every recovery's report); ranks killed by
    the failure plan never return — they raise
    :class:`~repro.mpi.errors.RankDied`, which ``run_spmd`` records as the
    rank's result.  The strategy must support the elastic hooks
    (``abort_epoch``/``attach_comm``), i.e. be a
    :class:`~repro.shuffle.partial.PartialLocalShuffle`.
    """
    plan = failure_plan if failure_plan is not None else FailurePlan()
    for hook in ("abort_epoch", "attach_comm"):
        if not hasattr(strategy, hook):
            raise TypeError(
                f"elastic training needs a strategy with {hook}(); "
                f"{type(strategy).__name__} lacks it"
            )
    if getattr(strategy, "ledger", None) is None:
        strategy.ledger = ReplicaLedger()

    model, optimizer, schedule = build_replica(config, comm, model=model)
    strategy.setup(
        comm, train_dataset,
        labels=labels, partition=config.partition, seed=config.seed,
    )

    history = RunHistory(strategy=strategy.name, workers=comm.size)
    recoveries: list[RecoveryReport] = []
    epoch = 0
    while epoch < config.epochs:
        snapshot = _snapshot(model, optimizer)
        try:
            lr = schedule.step(epoch)
            record = train_one_epoch(
                comm, config, strategy, model, optimizer, epoch, lr,
                val_X, val_y,
                failure_point=partial(plan.check, comm.group[comm.rank], epoch),
            )
        except PeerFailure:
            comm, report = _recover(
                comm, strategy, model, optimizer, snapshot, train_dataset,
                epoch,
            )
            recoveries.append(report)
            continue  # redo the same epoch over the survivors
        history.add(record)
        if (
            checkpoint_path is not None
            and checkpoint_every
            and (epoch + 1) % checkpoint_every == 0
        ):
            if comm.rank == 0:
                from repro.train.checkpoint import save_checkpoint

                save_checkpoint(
                    checkpoint_path, model=model, optimizer=optimizer,
                    epoch=epoch, history=history,
                )
            comm.barrier()
        epoch += 1
    # Rescue the final epoch's telemetry pushes (deposited before the last
    # collective, but after rank 0's in-epoch drain).
    if comm.flight.enabled and comm.rank == 0:
        drain_pending(comm)
    history.stats = strategy.stats()
    history.stats["recoveries"] = [r.as_dict() for r in recoveries]
    history.stats["final_workers"] = comm.size
    if return_model:
        return history, model
    return history


def _recover(
    comm: Communicator,
    strategy: PartialLocalShuffle,
    model,
    optimizer,
    snapshot: dict,
    dataset: Dataset,
    epoch: int,
) -> tuple[Communicator, RecoveryReport]:
    """The PeerFailure handler: shrink, restore, re-home, re-bind.

    Runs identically on every survivor (each one caught the failure on a
    collective or matched receive that could not complete)."""
    t0 = time.perf_counter()
    tr = comm.tracer
    dead_before = dict(comm.dead_peers())
    if tr.enabled:
        tr.instant(
            "elastic.failure_detected", cat="elastic", epoch=epoch,
            dead={comm.group[lr]: e for lr, e in dead_before.items()},
        )
    # Post-mortem first, while the pre-shrink state is intact: one survivor
    # dumps every rank's flight ring (keyed, so N survivors produce one
    # artifact), and the surviving rank 0 rescues telemetry pushes still
    # queued in the dying communicator's mailbox.
    dead_world = tuple(sorted(comm.group[lr] for lr in dead_before))
    comm.flight.record(
        "elastic.failure_detected", epoch=epoch, dead=dead_world
    )
    comm.world.flight.dump(
        f"rank death at epoch {epoch}: ranks {list(dead_world)}",
        key=("shrink", epoch, dead_world),
        extra={"epoch": epoch, "dead_ranks": list(dead_world)},
    )
    if comm.rank == 0:
        drain_pending(comm)
    old_size = comm.size
    old_group = comm.group
    newcomm = comm.shrink()
    detection_s = time.perf_counter() - t0
    dead = tuple(sorted(set(old_group) - set(newcomm.group)))
    _restore(model, optimizer, snapshot)
    strategy.abort_epoch()
    recovery = ShardRecovery(
        newcomm, strategy.storage, strategy.ledger,
        dataset=dataset, old_size=old_size,
    )
    report = recovery.recover(dead_ranks=dead)
    strategy.attach_comm(newcomm)
    report.detection_latency_s = detection_s
    report.epoch = epoch
    newcomm.flight.record(
        "elastic.recovered",
        epoch=epoch,
        dead=dead,
        survivors=len(newcomm.group),
        wall_s=report.wall_s,
    )
    if tr.enabled:
        tr.metrics.histogram("elastic.detection_latency_s").observe(detection_s)
        tr.metrics.histogram("elastic.recovery_wall_s").observe(report.wall_s)
    return newcomm, report


# --------------------------------------------------------------------- harness
@dataclass
class ElasticRunResult:
    """Outcome of one :func:`run_elastic` launch."""

    history: RunHistory
    #: World ranks that died during the run.
    dead_ranks: tuple[int, ...]
    #: Recovery summaries (``RecoveryReport.as_dict()`` per recovery).
    recoveries: list[dict] = field(default_factory=list)
    #: The raw per-rank results (RankDied instances for dead ranks).
    results: SpmdResult | None = None

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy


def run_elastic(
    worker_fn=None,
    *,
    config: TrainConfig,
    workers: int,
    q: float = 0.2,
    failures: str | FailurePlan = "",
    train_dataset=None,
    labels=None,
    val_X=None,
    val_y=None,
    strategy_kwargs: dict | None = None,
    deadline_s: float = 600.0,
    tracing: bool = False,
    world_factory=None,
    backend: str | None = None,
) -> ElasticRunResult:
    """Launch an elastic PLS training run with an injected failure schedule.

    The CLI, benchmarks and tests all come through here: it builds one
    :class:`PartialLocalShuffle` (+ ledger) per rank, runs
    :func:`elastic_train_worker` under ``run_spmd``, and returns the first
    survivor's history plus the recovery summaries.
    """
    plan = FailurePlan.parse(failures) if isinstance(failures, str) else failures
    kwargs = dict(strategy_kwargs or {})

    def worker(comm):
        strategy = PartialLocalShuffle(q, ledger=ReplicaLedger(), **kwargs)
        return elastic_train_worker(
            comm, config, strategy, train_dataset, labels, val_X, val_y,
            failure_plan=plan,
        )

    results = run_spmd(
        worker_fn or worker, workers, copy_on_send=False,
        deadline_s=deadline_s, tracing=tracing, world_factory=world_factory,
        backend=backend,
    )
    survivors = [r for r in results if isinstance(r, RunHistory)]
    dead = tuple(
        rank for rank, r in enumerate(results) if isinstance(r, RankDied)
    )
    if not survivors:
        raise RuntimeError("no surviving rank returned a history")
    history = survivors[0]
    return ElasticRunResult(
        history=history,
        dead_ranks=dead,
        recoveries=list(history.stats.get("recoveries", [])),
        results=results,
    )
