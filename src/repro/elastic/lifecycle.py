"""The fault-tolerant run path: degrade, checkpoint, restart, heal.

One worker loop (:class:`_LifecycleRank`) wraps the Figure-3 epoch body
with a failure boundary, and one launcher (:class:`Supervisor` /
:func:`run_lifecycle`) drives it.  Each epoch starts from an in-memory
snapshot of the replicated state (model, optimizer).  When a peer dies,
every survivor observes a :class:`~repro.mpi.errors.PeerFailure` on the
next operation that needs the dead rank; the handler (:func:`_recover`)

1. shrinks the communicator over the survivors (ULFM-style consensus),
2. restores the epoch-start snapshot (survivors may be torn mid-epoch, but
   all of them identically — collectives complete on all ranks or none),
3. aborts the in-flight exchange (nothing was installed or evicted, so
   storage and ledger are exactly their epoch-start state),
4. runs :class:`~repro.elastic.ShardRecovery` to re-home the dead rank's
   samples onto survivors (cold replicas first, source dataset as the PFS
   fallback) under the re-based ``(1+Q)·N/(M-1)`` capacity bound,
5. re-binds the shuffling strategy to the shrunk communicator and redoes
   the epoch over ``M-1`` workers (*degrade*).

:mod:`repro.elastic.rejoin` brings the rank back (*heal*), and with a
snapshot directory the run also survives losing the whole job: every
epoch ends with a crash-consistent full-job snapshot
(:func:`repro.train.checkpoint.save_job_snapshot`), and the supervisor,
outside the SPMD world, restarts a crashed job from the latest complete
snapshot and replays it to bit-identity.

The pieces:

* :class:`LifecyclePlan` — the failure schedule: *kills* (a
  :class:`~repro.elastic.FailurePlan`), *rejoins* (``rank@epoch``: the
  dead rank is re-admitted at that epoch's boundary), and *crashes*
  (whole-job fail-stops at an epoch boundary, each followed by a
  supervised restart).
* :func:`lifecycle_train_worker` — one rank's view.  A killed rank raises
  :class:`~repro.mpi.errors.RankDied`, which the launcher records as a
  non-fatal death (the world's epitaph channel) — unless the plan
  schedules its rejoin: then it performs the launcher's death bookkeeping
  itself (flight dump + epitaph), discards its node-local state, and
  parks in :meth:`~repro.mpi.communicator.Communicator.rejoin` until the
  survivors re-admit it through
  :meth:`~repro.mpi.communicator.Communicator.expand`.  A crash makes
  every live rank return a :class:`Crashed` marker (cooperatively — the
  world is not poisoned, so parked joiners unwind too).
* :class:`Supervisor` / :func:`run_lifecycle` — drives segments of
  ``run_spmd`` until no rank reports a crash, restoring the process-wide
  RNG stream and the per-rank shard state between segments, then verifies
  the end state: capacity at ``N/M`` per live rank, Q-deficit repaid,
  every lifecycle transition present in the flight record.
  ``resume=True`` starts from whatever the snapshot directory holds: the
  way back for a job that died for real.

One failure at a time is supported end-to-end; a second failure during an
epoch is caught by the same handler on the next attempt, but a death during
*recovery itself* propagates (survivors re-raise and the run fails).

Bit-identity is the design invariant, not an aspiration: everything epoch
``e`` consumes is either replicated deterministic state (model, optimizer,
``(seed, epoch)``-keyed exchange plans and samplers) or snapshot-restored
rank state (storage hot order, ledger, scheduler run state), so a killed /
crashed / restarted / healed run ends with exactly the same model bytes as
an uninterrupted run executing the same shrink/expand schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset
from repro.mpi.communicator import Communicator
from repro.mpi.errors import PeerFailure, RankDied
from repro.mpi.launcher import SpmdResult, run_spmd
from repro.obs.telemetry import drain_pending
from repro.shuffle.partial import PartialLocalShuffle
from repro.shuffle.storage import StorageArea
from repro.train.checkpoint import (
    _history_payload,
    _history_restore,
    _load_optimizer_velocity,
    _optimizer_velocity,
    latest_complete_snapshot,
    load_job_snapshot,
    save_job_snapshot,
)
from repro.train.history import RunHistory
from repro.train.trainer import TrainConfig, build_replica, train_one_epoch
from repro.utils.rng import default_rng_state, restore_default_rng_state

from .failure import FailurePlan
from .ledger import ReplicaLedger
from .recovery import RecoveryReport, ShardRecovery
from .rejoin import RankRejoin, join_handshake, rebalance_targets

__all__ = [
    "Crashed",
    "LifecyclePlan",
    "LifecycleResult",
    "Supervisor",
    "lifecycle_train_worker",
    "run_lifecycle",
]


@dataclass(frozen=True)
class Crashed:
    """Marker a rank returns when the plan crashes the whole job.

    Not an exception: a crash is a *cooperative* fail-stop (the world is
    left clean so ``run_spmd`` completes normally), and the supervisor
    reads these markers to decide a restart is needed.  ``epoch`` is the
    boundary the job died at, ``-1`` on ranks that were parked waiting to
    rejoin when the crash hit.
    """

    epoch: int
    rank: int | None = None


@dataclass(frozen=True)
class LifecyclePlan:
    """The full chaos schedule of one lifecycle run.

    ``kills`` fail-stop single ranks (``FailurePlan`` semantics);
    ``rejoins`` re-admit them at a later epoch boundary; ``crashes`` are
    whole-job fail-stops at an epoch boundary (epoch ``e`` in ``crashes``
    means the job dies *before* training epoch ``e``, so the restart
    resumes from epoch ``e-1``'s snapshot).
    """

    kills: FailurePlan = field(default_factory=FailurePlan)
    #: ``(world_rank, epoch)`` pairs: the rank rejoins at that epoch's start.
    rejoins: tuple[tuple[int, int], ...] = ()
    #: Epochs at whose *start* the whole job crashes.
    crashes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rejoins = tuple(sorted((int(r), int(e)) for r, e in self.rejoins))
        crashes = tuple(sorted({int(c) for c in self.crashes}))
        object.__setattr__(self, "rejoins", rejoins)
        object.__setattr__(self, "crashes", crashes)
        kill_epoch = {ev.rank: ev.epoch for ev in self.kills.events}
        seen: set[int] = set()
        for rank, epoch in rejoins:
            if rank in seen:
                raise ValueError(f"rank {rank} scheduled to rejoin twice")
            seen.add(rank)
            if rank not in kill_epoch:
                raise ValueError(
                    f"rank {rank} rejoins at epoch {epoch} but is never killed"
                )
            if epoch <= kill_epoch[rank]:
                raise ValueError(
                    f"rank {rank} rejoins at epoch {epoch} but only dies at "
                    f"epoch {kill_epoch[rank]}; rejoin must come later"
                )
        for c in crashes:
            if c < 1:
                raise ValueError(
                    f"crash epoch must be >= 1 (epoch {c} has no prior "
                    "snapshot to restart from)"
                )

    @classmethod
    def parse(
        cls, kills: str = "", rejoins: str = "", restart_after: str = ""
    ) -> "LifecyclePlan":
        """Parse the CLI triple.

        ``kills`` uses the :class:`FailurePlan` spec
        (``"1@2:mid_exchange"``); ``rejoins`` is ``"rank@epoch[,...]"``;
        ``restart_after`` lists epochs *after* which the job crashes
        (``"1"`` -> the job dies at the start of epoch 2, restarting from
        epoch 1's snapshot).
        """
        rj: list[tuple[int, int]] = []
        for part in filter(None, (p.strip() for p in rejoins.split(","))):
            rank_s, at, epoch_s = part.partition("@")
            if not at:
                raise ValueError(
                    f"bad rejoin spec {part!r}: expected rank@epoch"
                )
            rj.append((int(rank_s), int(epoch_s)))
        crashes = tuple(
            int(p) + 1
            for p in filter(None, (p.strip() for p in restart_after.split(",")))
        )
        return cls(
            kills=FailurePlan.parse(kills), rejoins=tuple(rj), crashes=crashes
        )

    @classmethod
    def from_profile(cls, profile) -> "LifecyclePlan":
        """Lift the lifecycle clauses out of a :class:`~repro.faults.FaultProfile`
        (``kill`` -> kills, ``rejoin:rank=r,epoch=e`` -> rejoins,
        ``crash:epoch=e`` -> crashes)."""
        return cls(
            kills=profile.failure_plan(),
            rejoins=tuple(
                (c.rank, c.epoch) for c in profile.by_kind("rejoin")
            ),
            crashes=tuple(c.epoch for c in profile.by_kind("crash")),
        )

    # ------------------------------------------------------------------ queries
    def joiners_at(self, epoch: int) -> tuple[int, ...]:
        """World ranks scheduled to rejoin at ``epoch``'s boundary."""
        return tuple(sorted(r for r, e in self.rejoins if e == epoch))

    def rejoin_epoch(self, rank: int) -> int | None:
        """When ``rank`` rejoins, or ``None`` if it stays dead."""
        return next((e for r, e in self.rejoins if r == rank), None)

    def dead_forever(self) -> tuple[int, ...]:
        """Ranks the plan kills and never brings back."""
        return tuple(
            r for r in self.kills.doomed() if self.rejoin_epoch(r) is None
        )

    def max_epoch(self) -> int:
        """Largest epoch any scheduled event touches (-1 when empty)."""
        epochs = [ev.epoch for ev in self.kills.events]
        epochs += [e for _, e in self.rejoins]
        epochs += list(self.crashes)
        return max(epochs, default=-1)

    def __bool__(self) -> bool:
        return bool(self.kills) or bool(self.rejoins) or bool(self.crashes)

    def __str__(self) -> str:
        parts = []
        if self.kills:
            parts.append(f"kill {self.kills}")
        if self.rejoins:
            parts.append(
                "rejoin " + ",".join(f"{r}@{e}" for r, e in self.rejoins)
            )
        if self.crashes:
            parts.append("crash @" + ",".join(str(c) for c in self.crashes))
        return "; ".join(parts) or "<no events>"


# ------------------------------------------------------- the failure boundary
def _snapshot(model, optimizer) -> dict:
    """Deep-copy the replicated state (an in-memory epoch-start checkpoint)."""
    return {
        "model": {k: np.copy(v) for k, v in model.state_dict().items()},
        "velocity": _optimizer_velocity(optimizer),
        "lr": optimizer.lr,
    }


def _restore(model, optimizer, snapshot: dict) -> None:
    model.load_state_dict({k: np.copy(v) for k, v in snapshot["model"].items()})
    _load_optimizer_velocity(optimizer, snapshot["velocity"])
    optimizer.lr = snapshot["lr"]


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
    dead_before = dict(comm.dead_peers())
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
    return newcomm, report


# ------------------------------------------------------------------ the worker
def lifecycle_train_worker(
    comm,
    config: TrainConfig,
    plan: LifecyclePlan,
    train_dataset,
    labels,
    val_X,
    val_y,
    *,
    q: float = 0.2,
    snapshot_dir: str | Path | None = None,
    strategy_kwargs: dict | None = None,
    total_workers: int | None = None,
    live_group: tuple[int, ...] | None = None,
    start_epoch: int = 0,
    snapshot: dict | None = None,
):
    """One rank of one job incarnation (segment).

    Returns ``(history, model_state)`` on ranks that finish the run,
    :class:`Crashed` on every rank when the plan crashes the job, and
    ``None`` on a restarted segment's permanently dead ranks.  A rank
    killed *without* a scheduled rejoin raises
    :class:`~repro.mpi.errors.RankDied`, so the launcher records its
    epitaph.  ``snapshot_dir=None`` writes no job snapshots.
    """
    rank = _LifecycleRank(
        comm,
        config,
        plan,
        train_dataset,
        labels,
        val_X,
        val_y,
        q=q,
        snapshot_dir=snapshot_dir,
        strategy_kwargs=strategy_kwargs or {},
        total_workers=total_workers if total_workers is not None else comm.size,
        live_group=tuple(live_group) if live_group else tuple(range(comm.size)),
        start_epoch=start_epoch,
        snapshot=snapshot,
    )
    return rank.run()


class _LifecycleRank:
    """Per-rank lifecycle state machine (see :func:`lifecycle_train_worker`)."""

    def __init__(
        self,
        comm,
        config,
        plan,
        dataset,
        labels,
        val_X,
        val_y,
        *,
        q,
        snapshot_dir,
        strategy_kwargs,
        total_workers,
        live_group,
        start_epoch,
        snapshot,
    ) -> None:
        self.comm = comm
        self._comm0 = comm  # what the launcher's stranded-request check sees
        self.config = config
        self.plan = plan
        self.dataset = dataset
        self.labels = labels
        self.val_X = val_X
        self.val_y = val_y
        self.q = q
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self.strategy_kwargs = strategy_kwargs
        self.total_workers = total_workers
        self.live_group = live_group
        self.segment_start = start_epoch
        self.snapshot = snapshot
        self.me = comm.group[comm.rank]
        self.model = None
        self.optimizer = None
        self.schedule = None
        self.strategy: PartialLocalShuffle | None = None
        self.history: RunHistory | None = None
        self.recoveries: list = []
        self.rejoin_reports: list = []

    # ---------------------------------------------------------------- lifecycle
    def run(self):
        if self.me not in self.live_group:
            return self._offline_start()
        if len(self.live_group) < self.comm.size:
            # Form the survivors' communicator; dead-at-start ranks mark
            # themselves dead on entry, which completes this rendezvous.
            self.comm = self.comm.shrink()
        if self.snapshot is None:
            self._fresh_setup()
        else:
            self._restore_from_snapshot()
        return self._loop(self.segment_start)

    def _loop(self, start_epoch: int):
        epoch = start_epoch
        while epoch < self.config.epochs:
            # Crash epochs <= the segment start already fired (the segment
            # *is* their restart), so only later ones trigger.
            if epoch in self.plan.crashes and epoch > self.segment_start:
                return self._crash(epoch)
            joiners = self.plan.joiners_at(epoch)
            if joiners and self.me not in joiners:
                # Survivor side of the rejoin; the joiner itself enters the
                # loop *through* the admission (_park_and_rejoin), so it
                # must not try to admit itself again.
                self._admit(joiners, epoch)
            mem = _snapshot(self.model, self.optimizer)
            try:
                lr = self.schedule.step(epoch)
                record = train_one_epoch(
                    self.comm, self.config, self.strategy, self.model,
                    self.optimizer, epoch, lr, self.val_X, self.val_y,
                    failure_point=partial(self.plan.kills.check, self.me, epoch),
                )
            except RankDied as exc:
                return self._die(exc)
            except PeerFailure:
                self.comm, report = _recover(
                    self.comm, self.strategy, self.model, self.optimizer,
                    mem, self.dataset, epoch,
                )
                self.recoveries.append(report)
                continue  # redo the epoch over the survivors
            self.history.add(record)
            self._checkpoint(epoch)
            epoch += 1
        return self._finish()

    # -------------------------------------------------------------- transitions
    def _crash(self, epoch: int) -> Crashed:
        """Whole-job fail-stop at an epoch boundary (every live rank)."""
        self.comm.flight.record("lifecycle.crash", epoch=epoch)
        self.comm.world.flight.dump(
            f"simulated job crash at epoch {epoch}",
            key=("lifecycle-crash", epoch),
            extra={"epoch": epoch, "live": list(self.comm.group)},
        )
        # Cooperative: unblocks parked joiners (rejoin() returns None)
        # without poisoning the world the way abort() would.
        self.comm.world.announce_crash(f"simulated crash at epoch {epoch}")
        return Crashed(epoch, rank=self.me)

    def _die(self, exc: RankDied):
        """This rank was killed.  With a rejoin scheduled it performs the
        launcher's death bookkeeping itself and parks; otherwise the death
        propagates and the launcher records the epitaph."""
        rejoin_epoch = self.plan.rejoin_epoch(self.me)
        if rejoin_epoch is None:
            raise exc
        world = self.comm.world
        world.flight.for_rank(self.me).record("rank.died", reason=str(exc))
        world.flight.dump(
            f"rank {self.me} died: {exc}", key=("rank-died", self.me)
        )
        world.mark_dead(self.me, str(exc))
        # Abandoned in-flight traffic can never complete; a rejoined rank
        # returning normally must not trip the stranded-request check.
        self._comm0.forget_pending()
        if self.comm is not self._comm0:
            self.comm.forget_pending()
        # The node loses its memory: model, optimizer and shard are gone.
        self.model = self.optimizer = self.schedule = None
        self.strategy = None
        self.history = None
        return self._park_and_rejoin(rejoin_epoch)

    def _offline_start(self):
        """A restarted segment's dead rank: publish the death, then either
        park for the scheduled rejoin or leave quietly."""
        rejoin_epoch = self.plan.rejoin_epoch(self.me)
        self.comm.world.mark_dead(
            self.me, f"offline at restart (segment begins at epoch "
            f"{self.segment_start})",
        )
        if rejoin_epoch is None:
            return None
        return self._park_and_rejoin(rejoin_epoch)

    def _park_and_rejoin(self, rejoin_epoch: int):
        """Block in the JOIN handshake until re-admitted, then resume the
        epoch loop as a joiner with handed-over state."""
        self._comm0.flight.record(
            "lifecycle.rejoin_requested", rank=self.me, epoch=rejoin_epoch
        )
        newcomm = self._comm0.rejoin()
        if newcomm is None:
            # The job crashed while this rank was parked.
            return Crashed(-1, rank=self.me)
        newcomm.flight.record(
            "lifecycle.admitted", rank=self.me, members=newcomm.size
        )
        joiners = self.plan.joiners_at(rejoin_epoch)
        state = join_handshake(newcomm, joiners)
        self._adopt_state(newcomm, state, joiners)
        self.comm = newcomm
        return self._loop(int(state["epoch"]))

    def _admit(self, joiners: tuple[int, ...], epoch: int) -> None:
        """Survivor side of a rejoin: expand, hand over state, rebalance."""
        old_size = self.comm.size
        newcomm = self.comm.expand(joiners)
        root = min(r for r in newcomm.group if r not in joiners)
        state = None
        if self.me == root:
            state = self._handover_state(epoch, old_size, newcomm.size)
        join_handshake(newcomm, joiners, state)
        report = RankRejoin(
            newcomm, self.strategy.storage, self.strategy.ledger,
            old_size=old_size,
        ).rebalance(joiners)
        report.epoch = epoch
        self.rejoin_reports.append(report)
        # Scheduler rebuilt over the expanded size; run-owned state (the
        # Q-deficit owed from degraded epochs) carries over and, with
        # capacity restored, repays faster by construction.
        self.strategy.attach_comm(newcomm)
        self.comm = newcomm
        newcomm.flight.record(
            "lifecycle.rebalanced",
            epoch=epoch,
            joiners=list(joiners),
            moved=report.moved_gids,
            promoted=report.promoted,
            bytes=report.bytes_transferred,
        )

    # ------------------------------------------------------------- state moves
    def _handover_state(self, epoch: int, old_size: int, new_size: int) -> dict:
        """Everything a joiner missed while dead (sent on ``JOIN.tag(0)``)."""
        cap = self.strategy.storage.capacity_bytes
        sched = self.strategy.scheduler
        return {
            "epoch": int(epoch),
            "model_state": {
                k: np.copy(v) for k, v in self.model.state_dict().items()
            },
            "optimizer_velocity": _optimizer_velocity(self.optimizer),
            "optimizer_lr": self.optimizer.lr,
            "seed": self.config.seed,
            "total_workers": self.total_workers,
            "ledger": dict(self.strategy.ledger.holder),
            # The joiner starts at the healed bound the survivors are about
            # to shrink back to: (1+Q)·N/M_new.
            "capacity_bytes": (
                None if cap is None else -(-cap * old_size // new_size)
            ),
            # Replicated scheduler state only: the deficit is owed by the
            # run (identical on every rank); traffic counters are per-rank
            # and restart at zero on a fresh node.
            "scheduler_shared": {
                "q_deficit": sched.q_deficit,
                "effective_q": sched.effective_q,
                "degraded_epochs": sched.degraded_epochs,
            },
            "history": _history_payload(self.history),
        }

    def _adopt_state(self, comm, state: dict, joiners: tuple[int, ...]) -> None:
        """Joiner side: rebuild replicated state from the handshake, then
        receive the rebalanced shard."""
        self._restore_replica(state)
        ledger = ReplicaLedger()
        ledger.holder = {int(g): int(r) for g, r in state["ledger"].items()}
        storage = StorageArea(capacity_bytes=state["capacity_bytes"])
        self.strategy = PartialLocalShuffle(
            self.q, ledger=ledger, **self.strategy_kwargs
        )
        self.strategy.adopt(comm, storage=storage, seed=state["seed"])
        shared = state["scheduler_shared"]
        sched = self.strategy.scheduler
        sched.q_deficit = shared["q_deficit"]
        sched.effective_q = shared["effective_q"]
        sched.degraded_epochs = shared["degraded_epochs"]
        self.history = _history_restore(state["history"])
        report = RankRejoin(comm, storage, ledger).rebalance(joiners)
        report.epoch = int(state["epoch"])
        self.rejoin_reports.append(report)
        comm.flight.record(
            "lifecycle.rebalanced",
            epoch=int(state["epoch"]),
            joiners=list(joiners),
            moved=report.moved_gids,
            promoted=report.promoted,
            bytes=report.bytes_transferred,
        )

    def _fresh_setup(self) -> None:
        cfg = self.config
        self.model, self.optimizer, self.schedule = build_replica(cfg, self.comm)
        self.strategy = PartialLocalShuffle(
            self.q, ledger=ReplicaLedger(), **self.strategy_kwargs
        )
        self.strategy.setup(
            self.comm, self.dataset,
            labels=self.labels, partition=cfg.partition, seed=cfg.seed,
        )
        self.history = RunHistory(
            strategy=self.strategy.name, workers=self.comm.size
        )

    def _restore_from_snapshot(self) -> None:
        """Crash-restart: rebuild this rank's entire state from the
        snapshot — replicated state directly, the shard by re-reading the
        manifest's gids from the source dataset in hot order."""
        snap = self.snapshot
        self._restore_replica(snap)
        ledger = ReplicaLedger()
        ledger.holder = {int(g): int(r) for g, r in snap["ledger"].items()}
        manifest = snap["manifests"][self.me]
        storage = StorageArea(capacity_bytes=manifest["capacity_bytes"])
        for gid in manifest["hot"]:
            sample, label = self.dataset[int(gid)]
            storage.add(np.asarray(sample), int(label), gid=int(gid))
        for gid in manifest["cold"]:
            # add_cold, not add+demote: a gid may be hot *and* cold, and the
            # hot map must keep pointing at the hot copy.
            sample, label = self.dataset[int(gid)]
            storage.add_cold(np.asarray(sample), int(label), gid=int(gid))
        self.strategy = PartialLocalShuffle(
            self.q, ledger=ledger, **self.strategy_kwargs
        )
        self.strategy.adopt(
            self.comm, storage=storage, seed=snap["seed"],
            scheduler_state=snap["scheduler_states"][self.me],
        )
        self.history = _history_restore(snap["history"])
        self.comm.flight.record(
            "lifecycle.restart",
            epoch=self.segment_start,
            live=list(self.comm.group),
        )

    def _restore_replica(self, state: dict) -> None:
        """Replicated state from a snapshot or handshake.  The optimizer is
        built for the *original* worker count: lr scaling follows the job,
        not the current incarnation's size."""
        self.model, self.optimizer, self.schedule = build_replica(
            self.config, workers=state["total_workers"]
        )
        _restore(
            self.model,
            self.optimizer,
            {
                "model": state["model_state"],
                "velocity": state["optimizer_velocity"],
                "lr": state["optimizer_lr"],
            },
        )

    # -------------------------------------------------------------- checkpoint
    def _checkpoint(self, epoch: int) -> None:
        """End-of-epoch full-job snapshot (collective; rank 0 writes)."""
        if self.snapshot_dir is None:
            return
        manifest = {
            "hot": [int(g) for g in self.strategy.storage.hot_gids()],
            "cold": [int(g) for g in self.strategy.storage.cold_gids()],
            "capacity_bytes": self.strategy.storage.capacity_bytes,
        }
        per_rank = self.comm.allgather(
            (manifest, self.strategy.scheduler.state_dict())
        )
        if self.comm.rank == 0:
            group = self.comm.group
            payload = {
                "epoch": int(epoch),
                "model_state": {
                    k: np.copy(v) for k, v in self.model.state_dict().items()
                },
                "optimizer_velocity": _optimizer_velocity(self.optimizer),
                "optimizer_lr": self.optimizer.lr,
                "rng": default_rng_state(),
                "history": _history_payload(self.history),
                "seed": self.config.seed,
                "total_workers": self.total_workers,
                "live_group": list(group),
                "ledger": dict(self.strategy.ledger.holder),
                "manifests": {group[i]: m for i, (m, _) in enumerate(per_rank)},
                "scheduler_states": {
                    group[i]: s for i, (_, s) in enumerate(per_rank)
                },
            }
            path = save_job_snapshot(self.snapshot_dir, payload)
            self.comm.flight.record(
                "lifecycle.checkpoint", epoch=epoch, path=str(path)
            )
        # Nobody starts the next epoch until the snapshot is durable.
        self.comm.barrier()

    # ------------------------------------------------------------------ finish
    def _finish(self):
        if self.comm.flight.enabled and self.comm.rank == 0:
            drain_pending(self.comm)
        stats = self.strategy.stats()
        stats["recoveries"] = [r.as_dict() for r in self.recoveries]
        stats["rejoins"] = [r.as_dict() for r in self.rejoin_reports]
        stats["final_workers"] = self.comm.size
        stats["final_group"] = list(self.comm.group)
        stats["q_deficit"] = self.strategy.scheduler.q_deficit
        stats["hot_counts"] = self.comm.allgather(len(self.strategy.storage))
        self.history.stats = stats
        model_state = {
            k: np.copy(v) for k, v in self.model.state_dict().items()
        }
        return self.history, model_state


# -------------------------------------------------------------- the supervisor
@dataclass
class LifecycleResult:
    """Outcome of a supervised lifecycle run."""

    history: RunHistory
    #: Final model parameters/buffers (rank-replicated, so any rank's copy).
    model_state: dict
    #: Job incarnations executed (1 = never crashed).
    segments: int
    restarts: int
    #: Ordered lifecycle/elastic flight events across every segment.
    events: list[dict]
    rejoins: list[dict]
    recoveries: list[dict]
    final_workers: int
    final_group: tuple[int, ...]
    q_deficit: float
    #: Every live rank back at its N/M hot-sample target.
    capacity_ok: bool
    #: capacity_ok and deficit repaid and worker count as expected.
    verified: bool
    dead_ranks: tuple[int, ...]
    #: The final segment's raw per-rank results (and through ``.world`` its
    #: flight dumps and telemetry).
    results: SpmdResult

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    def event_kinds(self) -> list[str]:
        """The ordered transition sequence (for assertions and reports)."""
        return [e["kind"] for e in self.events]


class Supervisor:
    """Drives the self-healing loop across job incarnations.

    Each iteration launches one ``run_spmd`` segment.  If any rank returns
    :class:`Crashed`, the supervisor locates the latest *complete* snapshot
    (two-phase commit marker present), restores the process-wide RNG
    stream, and relaunches with the snapshot's live group — dead ranks
    re-park for their scheduled rejoin.  When a segment finishes cleanly it
    verifies the healed state and assembles the cross-segment flight-event
    timeline.  ``snapshot_dir=None`` runs without job snapshots, which a
    plan with crashes (or a resume) cannot do.
    """

    def __init__(
        self,
        *,
        config: TrainConfig,
        workers: int,
        q: float = 0.2,
        plan: LifecyclePlan | None = None,
        snapshot_dir: str | Path | None = None,
        train_dataset,
        labels,
        val_X,
        val_y,
        strategy_kwargs: dict | None = None,
        deadline_s: float = 600.0,
        tracing: bool = False,
        world_factory=None,
        backend: str | None = None,
    ) -> None:
        self.config = config
        self.workers = workers
        self.q = q
        self.plan = plan if plan is not None else LifecyclePlan()
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self.train_dataset = train_dataset
        self.labels = labels
        self.val_X = val_X
        self.val_y = val_y
        self.strategy_kwargs = strategy_kwargs
        self.deadline_s = deadline_s
        self.tracing = tracing
        self.world_factory = world_factory
        self.backend = backend
        if self.plan.max_epoch() >= config.epochs:
            raise ValueError(
                f"lifecycle plan touches epoch {self.plan.max_epoch()} but "
                f"the run only has {config.epochs} epochs"
            )
        if self.plan.crashes and self.snapshot_dir is None:
            raise ValueError(
                "a plan with crashes needs a snapshot_dir to restart from"
            )

    def run(self, *, resume: bool = False) -> LifecycleResult:
        """Run to completion; ``resume=True`` starts from the snapshot
        directory's latest complete snapshot instead of epoch 0."""
        restart = (0, None, None)
        if resume:
            restart = self._restart_point("resume requested")
        segments = 0
        events: list[dict] = []
        while True:
            segments += 1
            results = self._segment(*restart)
            events.extend(_lifecycle_events(results.world, segments))
            crashed = [r for r in results if isinstance(r, Crashed)]
            if not crashed:
                break
            results.world.flight.dump(
                f"lifecycle segment {segments} crashed",
                key=("lifecycle-segment", segments),
                extra={"segment": segments},
            )
            # A segment only returns Crashed at one of the plan's crash
            # epochs, and each fires once.
            if segments > len(self.plan.crashes):
                raise RuntimeError(
                    f"segment {segments} crashed but the plan schedules only "
                    f"{len(self.plan.crashes)} crash(es)"
                )
            restart = self._restart_point(
                f"crash at epoch {max(c.epoch for c in crashed)}"
            )
        return self._verify(results, segments, events)

    # --------------------------------------------------------------- internals
    def _segment(self, start_epoch, snapshot, live_group):
        def worker(comm):
            return lifecycle_train_worker(
                comm, self.config, self.plan,
                self.train_dataset, self.labels, self.val_X, self.val_y,
                q=self.q,
                snapshot_dir=self.snapshot_dir,
                strategy_kwargs=self.strategy_kwargs,
                total_workers=self.workers,
                live_group=live_group,
                start_epoch=start_epoch,
                snapshot=snapshot,
            )

        return run_spmd(
            worker, self.workers, copy_on_send=False,
            deadline_s=self.deadline_s, tracing=self.tracing,
            world_factory=self.world_factory, backend=self.backend,
        )

    def _restart_point(self, why: str) -> tuple[int, dict, tuple[int, ...]]:
        """``(start_epoch, snapshot, live_group)`` of the latest complete
        snapshot, with the process-wide RNG stream put back where the
        snapshot left it."""
        path = (
            None if self.snapshot_dir is None
            else latest_complete_snapshot(self.snapshot_dir)
        )
        if path is None:
            raise RuntimeError(
                f"cannot restart ({why}): no complete snapshot in "
                f"{self.snapshot_dir}"
            )
        snapshot = load_job_snapshot(path)
        restore_default_rng_state(snapshot["rng"])
        return (
            int(snapshot["epoch"]) + 1,
            snapshot,
            tuple(int(r) for r in snapshot["live_group"]),
        )

    def _verify(self, results, segments: int, events: list[dict]) -> LifecycleResult:
        finals = {
            r: res for r, res in enumerate(results) if isinstance(res, tuple)
        }
        if not finals:
            raise RuntimeError("no rank finished the lifecycle run")
        history, model_state = finals[min(finals)]
        stats = history.stats
        final_group = tuple(stats["final_group"])
        hot_counts = list(stats["hot_counts"])
        targets = rebalance_targets(sum(hot_counts), final_group)
        expected = [targets[r] for r in final_group]
        if stats.get("rejoins"):
            # A rebalance ran: the planner guarantees the exact per-rank
            # assignment (first ``total mod M`` ranks hold the extra).
            capacity_ok = hot_counts == expected
        else:
            # Degraded finish: recovery balances within one sample but the
            # least-loaded assignment doesn't fix *which* rank holds it.
            capacity_ok = sorted(hot_counts) == sorted(expected)
        q_deficit = float(stats.get("q_deficit", 0.0))
        expected_workers = self.workers - len(self.plan.dead_forever())
        verified = (
            capacity_ok
            and q_deficit == 0.0
            and stats["final_workers"] == expected_workers
        )
        world = results.world
        world.flight.for_rank(final_group[0]).record(
            "lifecycle.verified",
            capacity_ok=capacity_ok,
            q_deficit=q_deficit,
            workers=stats["final_workers"],
            segments=segments,
        )
        events.append(
            {
                "segment": segments,
                "rank": final_group[0],
                "kind": "lifecycle.verified",
                "capacity_ok": capacity_ok,
                "q_deficit": q_deficit,
            }
        )
        world.flight.dump(
            "lifecycle complete",
            key="lifecycle-complete",
            extra={
                "segments": segments,
                "restarts": segments - 1,
                "verified": verified,
                "transitions": [e["kind"] for e in events],
            },
        )
        return LifecycleResult(
            history=history,
            model_state=model_state,
            segments=segments,
            restarts=segments - 1,
            events=events,
            rejoins=list(stats.get("rejoins", [])),
            recoveries=list(stats.get("recoveries", [])),
            final_workers=stats["final_workers"],
            final_group=final_group,
            q_deficit=q_deficit,
            capacity_ok=capacity_ok,
            verified=verified,
            dead_ranks=self.plan.dead_forever(),
            results=results,
        )


#: Flight-event kinds the supervisor lifts into the cross-segment timeline.
_EVENT_PREFIXES = ("lifecycle.", "elastic.", "rank.died")


def _lifecycle_events(world, segment: int) -> list[dict]:
    """Ordered lifecycle/elastic events from every rank's flight ring."""
    out = []
    for rec in world.flight.recorders:
        for event in rec.events():
            if event["kind"].startswith(_EVENT_PREFIXES):
                out.append({"segment": segment, "rank": rec.rank, **event})
    out.sort(key=lambda e: e["ts"])
    return out


def run_lifecycle(
    *,
    config: TrainConfig,
    workers: int,
    q: float = 0.2,
    plan: LifecyclePlan | None = None,
    kills: str = "",
    rejoins: str = "",
    restart_after: str = "",
    snapshot_dir: str | Path | None = None,
    resume: bool = False,
    train_dataset,
    labels,
    val_X,
    val_y,
    strategy_kwargs: dict | None = None,
    deadline_s: float = 600.0,
    tracing: bool = False,
    world_factory=None,
    backend: str | None = None,
) -> LifecycleResult:
    """Launch one supervised run: the entry point of tests, benchmarks and
    :func:`repro.faults.run_chaos_train` (and through it the CLI).

    The schedule is ``plan``, or the :meth:`LifecyclePlan.parse` triple
    ``kills`` / ``rejoins`` / ``restart_after``.  ``snapshot_dir`` turns on
    end-of-epoch job snapshots (required by crashes); ``resume=True``
    restarts a job that died — for real, on schedule, by SIGKILL — from the
    last epoch whose two-phase snapshot committed and replays it
    bit-identically to a run that never died.
    """
    if plan is None:
        plan = LifecyclePlan.parse(
            kills=kills, rejoins=rejoins, restart_after=restart_after
        )
    return Supervisor(
        config=config, workers=workers, q=q, plan=plan,
        snapshot_dir=snapshot_dir, train_dataset=train_dataset, labels=labels,
        val_X=val_X, val_y=val_y, strategy_kwargs=strategy_kwargs,
        deadline_s=deadline_s, tracing=tracing, world_factory=world_factory,
        backend=backend,
    ).run(resume=resume)
