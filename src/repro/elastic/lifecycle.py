"""The fault-tolerant run path: degrade, checkpoint, restart, heal.

One worker loop (:class:`_LifecycleRank`) wraps the Figure-3 epoch body
with a failure boundary, and one launcher (:func:`run_lifecycle`) drives
it.  Each epoch starts from an in-memory copy of the replicated state
(:func:`repro.train.checkpoint.replica_state`).  When a peer dies, every
survivor observes a :class:`~repro.mpi.errors.PeerFailure` on the next
operation that needs the dead rank; the handler (:func:`_recover`)

1. shrinks the communicator over the survivors (ULFM-style consensus),
2. restores the epoch-start copy (survivors may be torn mid-epoch, but
   all of them identically — collectives complete on all ranks or none),
3. aborts the in-flight exchange (nothing was installed or evicted, so
   storage and ledger are exactly their epoch-start state),
4. runs :func:`~repro.elastic.rebalance` to re-home the dead rank's
   samples onto survivors, re-read from the source dataset (the PFS
   holds every original),
5. re-binds the shuffling strategy to the shrunk communicator and redoes
   the epoch over ``M-1`` workers (*degrade*).

A rejoin brings the rank back (*heal*) through the same
:func:`~repro.elastic.rebalance`, and with a snapshot directory the run
also survives losing the whole job: every epoch ends with a
crash-consistent full-job snapshot
(:func:`repro.train.checkpoint.save_job_snapshot`), and the launcher,
outside the SPMD world, restarts a crashed job from the latest complete
snapshot and replays it to bit-identity.

The pieces:

* The schedule is a :class:`~repro.faults.FaultProfile`: its *kills* (a
  rank dies at an epoch and a point within it), *rejoins* (the dead rank
  is re-admitted at a later epoch's boundary) and *crashes* (whole-job
  fail-stops at an epoch boundary, each followed by a supervised
  restart), and its transient clauses, which a
  :class:`~repro.faults.ChaosEngine` injects into message delivery and
  storage reads.
* :class:`_LifecycleRank` — one rank's view.  A killed rank raises
  :class:`~repro.mpi.errors.RankDied`, which the launcher records as a
  non-fatal death (the world's epitaph channel) — unless the schedule
  has its rejoin: then it performs the launcher's death bookkeeping
  itself (flight dump + epitaph), discards its node-local state, and
  parks in :meth:`~repro.mpi.communicator.Communicator.rejoin` until the
  survivors re-admit it through
  :meth:`~repro.mpi.communicator.Communicator.expand`.  A crash makes
  every live rank return a :class:`Crashed` marker (cooperatively — the
  world is not poisoned, so parked joiners unwind too).
* One **job record** — the replica state plus seed, job size and ledger,
  with a shard manifest and scheduler state per rank — is what a snapshot
  persists and what a joiner is handed; a restarted rank and a joiner
  rebuild themselves from it through one routine
  (:meth:`_LifecycleRank._restore_job`).
* :func:`run_lifecycle` — drives segments of ``run_spmd`` until no rank
  reports a crash, restoring the process-wide RNG stream and the per-rank
  shard state between segments, then verifies the end state: every
  training sample hot exactly once, capacity at ``N/M`` per live rank,
  Q-deficit repaid, every lifecycle transition present in the flight
  record.  A snapshot directory that already holds a complete snapshot
  is resumed: the way back for a job that died for real.

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

import contextlib
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.folder import materialize_folder_dataset
from repro.faults import ChaosEngine, ChaosWorld, FaultProfile
from repro.mpi.communicator import Communicator
from repro.mpi.errors import PeerFailure, RankDied
from repro.mpi.launcher import SpmdResult, run_spmd
from repro.mpi.tags import JOIN
from repro.obs import LIFECYCLE_PREFIXES
from repro.obs.telemetry import drain_pending
from repro.shuffle.partial import PartialLocalShuffle
from repro.shuffle.storage import StorageArea
from repro.train.checkpoint import (
    CheckpointError,
    latest_complete_snapshot,
    load_job_snapshot,
    replica_state,
    restore_replica_state,
    save_job_snapshot,
)
from repro.train.history import RunHistory
from repro.train.trainer import TrainConfig, build_replica, train_one_epoch
from repro.utils.retry import default_retrier
from repro.utils.rng import default_rng_state, restore_default_rng_state

from .ledger import ReplicaLedger
from .migration import RebalanceReport, rebalance, rebalance_targets

__all__ = [
    "Crashed",
    "LifecycleResult",
    "run_lifecycle",
]

#: Scheduler state the *run* owns (identical on every rank): what a joiner
#: is handed.  Traffic counters are per-rank and restart at zero on a
#: fresh node.
_RUN_OWNED_SCHEDULER_STATE = ("q_deficit", "effective_q", "degraded_epochs")


@dataclass(frozen=True)
class Crashed:
    """Marker a rank returns when the schedule crashes the whole job.

    Not an exception: a crash is a *cooperative* fail-stop (the world is
    left clean so ``run_spmd`` completes normally), and
    :func:`run_lifecycle` reads these markers to decide a restart is needed.  ``epoch`` is the
    boundary the job died at, ``-1`` on ranks that were parked waiting to
    rejoin when the crash hit.
    """

    epoch: int
    rank: int | None = None


# ------------------------------------------------------- the failure boundary
def _recover(
    comm: Communicator,
    strategy: PartialLocalShuffle,
    model,
    optimizer,
    epoch_start: dict,
    dataset: Dataset,
    epoch: int,
) -> tuple[Communicator, RebalanceReport]:
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
    newcomm = comm.shrink()
    detection_s = time.perf_counter() - t0
    restore_replica_state(epoch_start, model, optimizer)
    strategy.abort_epoch()
    report = rebalance(newcomm, strategy.storage, strategy.ledger, dataset=dataset)
    strategy.attach_comm(newcomm)
    report.detection_latency_s = detection_s
    report.epoch = epoch
    newcomm.flight.record(
        "elastic.recovered",
        epoch=epoch,
        dead=report.dead_ranks,
        survivors=len(newcomm.group),
        wall_s=report.wall_s,
    )
    return newcomm, report


# ------------------------------------------------------------------ the rejoin
def _join_handshake(comm, joiners: Sequence[int], state: dict | None = None):
    """The tagged JOIN handshake on the expanded communicator: the lowest
    surviving member sends ``state`` (the job record a joiner missed while
    dead) to each joiner on ``JOIN.tag(0)``, and each joiner ACKs on
    ``JOIN.tag(1)``.

    No barrier follows.  No member can post a migration transfer before
    every joiner holds the state it assumes, by program order alone: a
    joiner installs the returned state before it calls
    :func:`~repro.elastic.migration.rebalance`, which opens with
    ``comm.allgather``, and no member leaves that collective before every
    joiner has entered it (``tests/faults/test_chaos_train.py`` pins the
    ordering under control-plane ``delay`` / ``dup``).

    Returns the received state on joiners, ``None`` on existing members.
    """
    joiners = tuple(sorted(set(joiners)))
    me_world = comm.group[comm.rank]
    root = comm.group.index(min(r for r in comm.group if r not in joiners))
    if me_world in joiners:
        received = comm.recv(source=root, tag=JOIN.tag(0))
        comm.send(("join-ack", me_world), dest=root, tag=JOIN.tag(1))
        return received
    if comm.rank == root:
        for j in joiners:
            comm.send(state, dest=comm.group.index(j), tag=JOIN.tag(0))
        for j in joiners:
            kind, who = comm.recv(source=comm.group.index(j), tag=JOIN.tag(1))
            if kind != "join-ack" or who != j:
                raise RuntimeError(
                    f"JOIN handshake: expected ack from {j}, got {(kind, who)}"
                )
    return None


# ------------------------------------------------------------------ the worker
class _LifecycleRank:
    """One rank of one job incarnation (segment).

    :meth:`run` returns ``(history, model_state)`` on ranks that finish
    the run, :class:`Crashed` on every rank when the schedule crashes the job,
    and ``None`` on a restarted segment's permanently dead ranks.  A rank
    killed *without* a scheduled rejoin raises
    :class:`~repro.mpi.errors.RankDied`, so the launcher records its
    epitaph.  ``job`` holds :func:`run_lifecycle`'s parameters;
    ``snapshot`` is the job record a restarted segment resumes from.
    """

    def __init__(
        self,
        comm,
        job: SimpleNamespace,
        start_epoch: int,
        snapshot: dict | None,
        live_group: tuple[int, ...] | None,
    ) -> None:
        self.comm = comm
        self._comm0 = comm  # what the launcher's stranded-request check sees
        self.job = job
        self.profile: FaultProfile = job.profile
        self.segment_start = start_epoch
        self.snapshot = snapshot
        self.live_group = live_group or tuple(range(comm.size))
        self.me = comm.group[comm.rank]
        self.model = None
        self.optimizer = None
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
            self._restore_job(self.comm, self.snapshot)
            self.comm.flight.record(
                "lifecycle.restart",
                epoch=self.segment_start,
                live=list(self.comm.group),
            )
        return self._loop(self.segment_start)

    def _loop(self, start_epoch: int):
        epoch = start_epoch
        while epoch < self.job.config.epochs:
            # Crash epochs <= the segment start already fired (the segment
            # *is* their restart), so only later ones trigger.
            if epoch in self.profile.crashes and epoch > self.segment_start:
                return self._crash(epoch)
            joiners = self.profile.joiners_at(epoch)
            if joiners and self.me not in joiners:
                # Survivor side of the rejoin; the joiner itself enters the
                # loop *through* the admission (_park_and_rejoin), so it
                # must not try to admit itself again.
                self._admit(joiners, epoch)
            epoch_start = replica_state(self.model, self.optimizer)
            try:
                record = train_one_epoch(
                    self.comm, self.job.config, self.strategy, self.model,
                    self.optimizer, epoch, self.job.val_X, self.job.val_y,
                    failure_point=partial(self.profile.check, self.me, epoch),
                )
            except RankDied as exc:
                return self._die(exc)
            except PeerFailure:
                self.comm, report = _recover(
                    self.comm, self.strategy, self.model, self.optimizer,
                    epoch_start, self.job.train_dataset, epoch,
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
        rejoin_epoch = self.profile.rejoin_epoch(self.me)
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
        self.model = self.optimizer = None
        self.strategy = None
        self.history = None
        return self._park_and_rejoin(rejoin_epoch)

    def _offline_start(self):
        """A restarted segment's dead rank: publish the death, then either
        park for the scheduled rejoin or leave quietly."""
        rejoin_epoch = self.profile.rejoin_epoch(self.me)
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
        joiners = self.profile.joiners_at(rejoin_epoch)
        record = _join_handshake(newcomm, joiners)
        self._restore_job(newcomm, record)
        self._rebalance(newcomm, int(record["epoch"]))
        self.comm = newcomm
        return self._loop(int(record["epoch"]))

    def _admit(self, joiners: tuple[int, ...], epoch: int) -> None:
        """Survivor side of a rejoin: expand, hand over state, rebalance."""
        newcomm = self.comm.expand(joiners)
        root = min(r for r in newcomm.group if r not in joiners)
        record = None
        if self.me == root:
            record = self._handover(epoch, joiners)
        _join_handshake(newcomm, joiners, record)
        self._rebalance(newcomm, epoch)
        # Scheduler rebuilt over the expanded size; run-owned state (the
        # Q-deficit owed from degraded epochs) carries over and, with
        # capacity restored, repays faster by construction.
        self.strategy.attach_comm(newcomm)
        self.comm = newcomm

    def _rebalance(self, comm, epoch: int) -> None:
        """Both sides of a rejoin: migrate shards back toward ``N/M``."""
        report = rebalance(comm, self.strategy.storage, self.strategy.ledger)
        report.epoch = epoch
        self.rejoin_reports.append(report)
        comm.flight.record(
            "lifecycle.rebalanced",
            epoch=epoch,
            joiners=list(report.joiners),
            moved=len(report.moves),
            bytes=report.bytes_transferred,
        )

    # --------------------------------------------------------- the job record
    def _job_record(self, epoch: int) -> dict:
        """The replicated job state, identical on every live rank, stamped
        with ``epoch`` (a snapshot's last finished epoch, a handover's next
        one).  A snapshot adds the per-rank manifests and scheduler states;
        a handover adds the joiners' (empty) ones."""
        return {
            "epoch": int(epoch),
            **replica_state(self.model, self.optimizer, self.history),
            "seed": self.job.config.seed,
            "total_workers": self.job.workers,
            "ledger": dict(self.strategy.ledger.holder),
        }

    def _handover(self, epoch: int, joiners) -> dict:
        """Everything a joiner missed while dead (sent on ``JOIN.tag(0)``).

        Each joiner starts with an empty shard and the scheduler state the
        run owns.
        """
        state = self.strategy.scheduler.state_dict()
        shared = {k: state[k] for k in _RUN_OWNED_SCHEDULER_STATE}
        empty = {"hot": []}
        return {
            **self._job_record(epoch),
            "manifests": {j: empty for j in joiners},
            "scheduler_states": {j: shared for j in joiners},
        }

    def _restore_job(self, comm, record: dict) -> None:
        """Rebuild this rank from a job record: a snapshot on restart, the
        handshake on rejoin.

        Replicated state first, then the ledger, then the shard (the
        manifest's gids re-read from the source dataset in hot order),
        then the strategy bound to ``comm``, then the history.
        """
        self.model, self.optimizer = build_replica(self.job.config)
        history = restore_replica_state(record, self.model, self.optimizer)
        ledger = ReplicaLedger()
        ledger.holder = {int(g): int(r) for g, r in record["ledger"].items()}
        manifest = record["manifests"][self.me]
        storage = StorageArea()
        dataset = self.job.train_dataset
        storage.add_many((*dataset[int(gid)], int(gid)) for gid in manifest["hot"])
        self.strategy = self._strategy(ledger)
        self.strategy.adopt(
            comm, storage=storage, seed=record["seed"],
            scheduler_state=record["scheduler_states"][self.me],
        )
        self.history = history

    def _strategy(self, ledger: ReplicaLedger) -> PartialLocalShuffle:
        return PartialLocalShuffle(
            self.job.q, ledger=ledger,
            exchange_deadline_s=self.job.exchange_deadline_s,
            resend_timeout_s=self.job.resend_timeout_s,
        )

    def _fresh_setup(self) -> None:
        cfg = self.job.config
        self.model, self.optimizer = build_replica(cfg, self.comm)
        self.strategy = self._strategy(ReplicaLedger())
        self.strategy.setup(
            self.comm, self.job.train_dataset,
            labels=self.job.labels, partition=cfg.partition, seed=cfg.seed,
        )
        self.history = RunHistory(
            strategy=self.strategy.name, workers=self.comm.size
        )

    # -------------------------------------------------------------- checkpoint
    def _checkpoint(self, epoch: int) -> None:
        """End-of-epoch full-job snapshot (collective; rank 0 writes)."""
        if self.job.snapshot_dir is None:
            return
        manifest = {"hot": [int(g) for g in self.strategy.storage.hot_gids()]}
        per_rank = self.comm.allgather(
            (manifest, self.strategy.scheduler.state_dict())
        )
        if self.comm.rank == 0:
            group = self.comm.group
            payload = {
                **self._job_record(epoch),
                "rng": default_rng_state(),
                "live_group": list(group),
                "manifests": {group[i]: m for i, (m, _) in enumerate(per_rank)},
                "scheduler_states": {
                    group[i]: s for i, (_, s) in enumerate(per_rank)
                },
            }
            path = save_job_snapshot(self.job.snapshot_dir, payload)
            self.comm.flight.record(
                "lifecycle.checkpoint", epoch=epoch, path=str(path)
            )
        # Nobody starts the next epoch until the snapshot is durable.
        self.comm.barrier()

    # ------------------------------------------------------------------ finish
    def _finish(self):
        if self.comm.rank == 0:
            drain_pending(self.comm)
        stats = self.strategy.stats()
        stats["recoveries"] = [r.as_dict() for r in self.recoveries]
        stats["rejoins"] = [r.as_dict() for r in self.rejoin_reports]
        stats["final_workers"] = self.comm.size
        stats["final_group"] = list(self.comm.group)
        stats["q_deficit"] = self.strategy.scheduler.q_deficit
        stats["hot_counts"] = self.comm.allgather(len(self.strategy.storage))
        self.history.stats = stats
        return self.history, self.model.state_dict()


# ---------------------------------------------------------------- the launcher

#: Exchange counters each rank keeps for its own frames.
_PER_RANK_COUNTERS = (
    "resends", "resent_bytes", "crc_rejects", "timeout_nacks", "stale_discards",
)
#: Exchange counters every rank of the run holds alike.
_REPLICATED_COUNTERS = ("degraded_epochs", "q_deficit", "effective_q")


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
    #: capacity_ok, every training sample hot, deficit repaid and worker
    #: count as expected.
    verified: bool
    dead_ranks: tuple[int, ...]
    #: The final segment's raw per-rank results (and through ``.world`` its
    #: flight dumps and telemetry).
    results: SpmdResult

    #: Injected-fault counts by kind, as the chaos engine recorded them.
    injected: dict
    #: This run's storage-read retry counters (the process-wide retrier's
    #: delta).
    retry_stats: dict

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def fault_stats(self) -> dict:
        """The exchange's fault-recovery counters for the world: the ones a
        rank counts for itself (resends, crc_rejects, ...) summed over every
        rank that finished, the ones every rank holds alike (degraded_epochs,
        q_deficit, effective_q) as the first finisher holds them."""
        stats = self.history.stats
        finished = [res[0].stats for res in self.results if isinstance(res, tuple)]
        out = {k: sum(s[k] for s in finished) for k in _PER_RANK_COUNTERS if k in stats}
        out.update((k, stats[k]) for k in _REPLICATED_COUNTERS if k in stats)
        return out

    @property
    def unrecovered(self) -> int:
        """Faults that defeated the defensive machinery (0 on success:
        the run only returns normally when everything was recovered, so
        this counts storage-read give-ups)."""
        return int(self.retry_stats.get("giveups", 0))


def run_lifecycle(
    *,
    config: TrainConfig,
    workers: int,
    q: float,
    profile: str | FaultProfile = "",
    chaos_seed: int = 0,
    snapshot_dir: str | Path | None = None,
    train_dataset,
    labels,
    val_X,
    val_y,
    exchange_deadline_s: float | None = None,
    resend_timeout_s: float = 0.25,
    materialize: bool = False,
    deadline_s: float = 600.0,
    tracing: bool = False,
    backend: str | None = None,
) -> LifecycleResult:
    """Launch one supervised run: the entry point of the CLI, tests and
    benchmarks.

    Each iteration launches one ``run_spmd`` segment of ``workers`` ranks
    training ``config`` with partial-``q`` shuffling under ``profile``
    (a :class:`~repro.faults.FaultProfile` or its spec string; empty means
    a clean run).  If any rank returns :class:`Crashed`, the latest
    *complete* snapshot (two-phase commit marker present) is loaded, the
    process-wide RNG stream restored, and the job relaunched with the
    snapshot's live group — dead ranks re-park for their scheduled rejoin.
    When a segment finishes cleanly the healed state is verified and the
    cross-segment flight-event timeline assembled.

    The profile's transient clauses are injected by a
    :class:`~repro.faults.ChaosEngine` rooted at ``chaos_seed`` (independent
    of ``config.seed``, so one training run can face different fault
    sequences): message faults through a :class:`~repro.faults.ChaosWorld`,
    storage faults through the reads of an on-disk copy of the training
    set, written to a temporary directory removed when the run ends.
    ``materialize=True`` writes that copy without storage faults: the
    folder layout orders samples by class, so only a clean baseline on the
    same substrate sees the same global indices (and can be bit-identical).
    ``exchange_deadline_s`` and ``resend_timeout_s`` go to every rank's
    :class:`PartialLocalShuffle`; a deadline lets ``slow:`` clauses degrade
    an epoch rather than stall it.

    ``snapshot_dir`` turns on end-of-epoch job snapshots; a profile with
    ``crash:`` clauses and no ``snapshot_dir`` gets a temporary one.  A
    ``snapshot_dir`` that already holds a complete snapshot is resumed:
    a job that died — for real, on schedule, by SIGKILL — restarts from
    the last epoch whose two-phase snapshot committed and replays it
    bit-identically to a run that never died.  A snapshot of a job with
    another worker count or seed raises
    :class:`~repro.train.checkpoint.CheckpointError`.
    """
    if isinstance(profile, str):
        profile = FaultProfile.parse(profile)
    profile.check_run(config.epochs, workers)
    engine = ChaosEngine(profile, seed=chaos_seed)
    world_factory = (
        partial(ChaosWorld, chaos=engine) if profile.has_message_faults else None
    )
    with contextlib.ExitStack() as scratch:
        if materialize or profile.has_storage_faults:
            # Real files give flaky/torn reads a physical read path to
            # perturb; the retrying FolderDataset recovers.
            features = np.stack(
                [np.asarray(train_dataset[i][0]) for i in range(len(train_dataset))]
            )
            train_dataset = materialize_folder_dataset(
                scratch.enter_context(tempfile.TemporaryDirectory(prefix="chaos-data-")),
                features, np.asarray(labels), num_classes=config.num_classes,
                fault_hook=engine.storage_hook,
            )
        if snapshot_dir is None and profile.crashes:
            snapshot_dir = scratch.enter_context(
                tempfile.TemporaryDirectory(prefix="chaos-snapshots-")
            )
        # The run's parameters, listed once: every segment and rank reads
        # them from here.
        job = SimpleNamespace(
            config=config, workers=workers, q=q, profile=profile,
            snapshot_dir=None if snapshot_dir is None else Path(snapshot_dir),
            train_dataset=train_dataset, labels=labels, val_X=val_X, val_y=val_y,
            exchange_deadline_s=exchange_deadline_s,
            resend_timeout_s=resend_timeout_s,
        )
        retry_before = default_retrier().stats()
        restart = (0, None, None)
        if job.snapshot_dir and latest_complete_snapshot(job.snapshot_dir):
            restart = _restart_point(job, "resuming the snapshot directory")
        segments = 0
        events: list[dict] = []
        while True:
            segments += 1
            results = run_spmd(
                lambda comm: _LifecycleRank(comm, job, *restart).run(),
                workers, deadline_s=deadline_s, tracing=tracing,
                world_factory=world_factory, backend=backend,
            )
            events.extend(_lifecycle_events(results.world, segments))
            crashed = [r for r in results if isinstance(r, Crashed)]
            if not crashed:
                break
            results.world.flight.dump(
                f"lifecycle segment {segments} crashed",
                key=("lifecycle-segment", segments),
                extra={"segment": segments},
            )
            # A segment only returns Crashed at one of the profile's crash
            # epochs, and each fires once.
            if segments > len(profile.crashes):
                raise RuntimeError(
                    f"segment {segments} crashed but the profile schedules "
                    f"only {len(profile.crashes)} crash(es)"
                )
            restart = _restart_point(
                job, f"crash at epoch {max(c.epoch for c in crashed)}"
            )
        retry_after = default_retrier().stats()
        retry_stats = {
            k: retry_after[k] - retry_before.get(k, 0) for k in retry_after
        }
        return _verify(
            job, results, segments, events, engine.snapshot(), retry_stats
        )


def _restart_point(job, why: str) -> tuple[int, dict, tuple[int, ...]]:
    """``(start_epoch, snapshot, live_group)`` of the latest complete
    snapshot, with the process-wide RNG stream put back where the
    snapshot left it."""
    path = (
        None if job.snapshot_dir is None
        else latest_complete_snapshot(job.snapshot_dir)
    )
    if path is None:
        raise RuntimeError(
            f"cannot restart ({why}): no complete snapshot in {job.snapshot_dir}"
        )
    snapshot = load_job_snapshot(path)
    # A snapshot of another job must not be resumed: 4 workers' snapshot
    # on 3 would restore ranks 0-2's manifests and silently drop rank 3's
    # shard.
    for key, ours in (("total_workers", job.workers), ("seed", job.config.seed)):
        if snapshot[key] != ours:
            raise CheckpointError(
                f"{path}: snapshot has {key}={snapshot[key]} but this run "
                f"has {key}={ours}"
            )
    restore_default_rng_state(snapshot["rng"])
    return (
        int(snapshot["epoch"]) + 1,
        snapshot,
        tuple(int(r) for r in snapshot["live_group"]),
    )


def _verify(
    job, results, segments: int, events: list[dict], injected: dict,
    retry_stats: dict,
) -> LifecycleResult:
    """Check the healed end state and assemble the result."""
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
    # Every membership change lands exactly on the targets (the first
    # ``total mod M`` ranks hold the extra).
    capacity_ok = hot_counts == [targets[r] for r in final_group]
    q_deficit = float(stats.get("q_deficit", 0.0))
    expected_workers = job.workers - len(job.profile.dead_forever())
    verified = (
        capacity_ok
        # Every training sample hot somewhere: the balance checks above
        # only compare the ranks with each other.
        and sum(hot_counts) == len(job.train_dataset)
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
        dead_ranks=job.profile.dead_forever(),
        results=results,
        injected=injected,
        retry_stats=retry_stats,
    )


def _lifecycle_events(world, segment: int) -> list[dict]:
    """Ordered lifecycle/elastic events from every rank's flight ring."""
    out = []
    for rec in world.flight.recorders:
        for event in rec.events():
            if event["kind"].startswith(LIFECYCLE_PREFIXES):
                out.append({"segment": segment, "rank": rec.rank, **event})
    out.sort(key=lambda e: e["ts"])
    return out
