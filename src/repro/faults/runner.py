"""Chaos-train harness: supervised PLS training under a fault profile.

:func:`run_chaos_train` is the composition point of the whole fault stack:

* the profile's *transient* clauses drive a :class:`ChaosEngine`, wired into
  message delivery via a :class:`ChaosWorld` (the ``world_factory`` seam of
  :func:`~repro.mpi.launcher.run_spmd`) and into storage reads via the
  engine's ``storage_hook``;
* its ``kill`` / ``rejoin`` / ``crash`` clauses become the
  :class:`~repro.elastic.LifecyclePlan` of the one failure-aware launcher
  (:func:`~repro.elastic.run_lifecycle`), so one spec exercises fail-stop
  recovery, healing, restart and transient recovery together — and the run
  proves a transient fault is never misdiagnosed as a rank death;
* the scheduler's reliable exchange (checksums + NACK/resend + deadline
  degradation) and the retrying storage readers absorb everything injected,
  which is why a chaotic run's final model is bit-identical to a clean one
  for recoverable profiles.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.elastic.lifecycle import LifecycleResult, run_lifecycle
from repro.train.checkpoint import latest_complete_snapshot
from repro.train.history import RunHistory
from repro.train.trainer import TrainConfig
from repro.utils.retry import default_retrier

from .engine import ChaosEngine, ChaosWorld
from .profile import FaultProfile

__all__ = ["ChaosRunResult", "run_chaos_train"]


@dataclass
class ChaosRunResult:
    """Outcome of one :func:`run_chaos_train` launch."""

    #: The supervised run: history, recoveries, rejoins, segments, verdict.
    lifecycle: LifecycleResult
    #: The profile that was injected (parsed form).
    profile: FaultProfile
    #: Injected-fault counts by kind, as the engine recorded them.
    injected: dict = field(default_factory=dict)
    #: Storage-read retry counters (process-wide policy snapshot delta).
    retry_stats: dict = field(default_factory=dict)

    @property
    def history(self) -> RunHistory:
        return self.lifecycle.history

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def fault_stats(self) -> dict:
        """The first survivor's exchange fault-recovery counters
        (resends, crc_rejects, q_deficit, effective_q, ...)."""
        stats = self.history.stats
        return {
            k: stats[k]
            for k in (
                "resends", "resent_bytes", "crc_rejects", "timeout_nacks",
                "stale_discards", "degraded_epochs", "q_deficit",
                "effective_q",
            )
            if k in stats
        }

    @property
    def unrecovered(self) -> int:
        """Faults that defeated the defensive machinery (0 on success:
        the run only returns normally when everything was recovered, so
        this counts storage-read give-ups)."""
        return int(self.retry_stats.get("giveups", 0))

    @property
    def telemetry(self) -> dict:
        """The aggregated cross-rank telemetry snapshot of the run."""
        return self.lifecycle.results.world.telemetry.snapshot()


def run_chaos_train(
    *,
    config: TrainConfig,
    workers: int,
    q: float,
    profile: str | FaultProfile = "",
    seed: int = 0,
    exchange_deadline_s: float | None = None,
    resend_timeout_s: float = 0.25,
    train_dataset=None,
    labels=None,
    val_X=None,
    val_y=None,
    data_root=None,
    materialize: bool | None = None,
    snapshot_dir=None,
    deadline_s: float = 600.0,
    tracing: bool = False,
    backend: str | None = None,
) -> ChaosRunResult:
    """Run supervised PLS training with ``profile``'s faults injected.

    Parameters mirror :func:`~repro.elastic.run_lifecycle`, plus:

    profile:
        Chaos spec (string grammar of :mod:`repro.faults.profile`) or a
        parsed :class:`FaultProfile`.  Empty means a clean run — still the
        reliable protocol, zero injections — which is what
        ``--compare-clean`` baselines against.
    seed:
        Chaos seed: the root of every injection decision (independent of
        ``config.seed`` so the *same training run* can face different fault
        sequences).
    exchange_deadline_s:
        Per-epoch exchange deadline forwarded to the scheduler; required
        for ``slow:`` clauses to degrade rather than stall.
    data_root:
        Directory for the on-disk copy of the training set used when the
        profile injects storage faults (a fresh temp dir when omitted).
        Without storage clauses the in-memory dataset is used as-is.
    materialize:
        Force (True) or suppress (False) the on-disk copy; the default
        materializes exactly when the profile has storage clauses.  A clean
        baseline being compared against a storage-fault run must pass
        ``materialize=True``: the folder layout orders samples by class, so
        only a baseline on the same substrate sees the same global indices
        (and can be bit-identical).
    snapshot_dir:
        Where end-of-epoch full-job snapshots go.  A directory that already
        holds a complete snapshot is *resumed* from it.  Omitted, no
        snapshots are written — except that a profile with ``crash:``
        clauses gets a temporary directory to restart from.
    """
    prof = FaultProfile.parse(profile) if isinstance(profile, str) else profile
    engine = ChaosEngine(prof, seed=seed)

    world_factory = None
    if prof.has_message_faults:
        def world_factory(size, **kwargs):
            return ChaosWorld(size, chaos=engine, **kwargs)

    dataset = train_dataset
    if materialize if materialize is not None else prof.has_storage_faults:
        # Put the training set on real files so flaky/torn reads have a
        # physical read path to perturb; the retrying FolderDataset recovers.
        from repro.data.folder import materialize_folder_dataset

        root = data_root if data_root is not None else tempfile.mkdtemp(
            prefix="chaos-data-"
        )
        features = np.stack([np.asarray(train_dataset[i][0])
                             for i in range(len(train_dataset))])
        dataset = materialize_folder_dataset(
            root, features, np.asarray(labels),
            num_classes=config.num_classes,
            fault_hook=engine.storage_hook,
        )

    plan = prof.lifecycle_plan()
    with contextlib.ExitStack() as stack:
        if snapshot_dir is None and plan.crashes:
            snapshot_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="chaos-snapshots-")
            )
        retry_before = default_retrier().stats()
        lifecycle = run_lifecycle(
            config=config,
            workers=workers,
            q=q,
            plan=plan,
            snapshot_dir=snapshot_dir,
            resume=snapshot_dir is not None
            and latest_complete_snapshot(snapshot_dir) is not None,
            train_dataset=dataset,
            labels=labels,
            val_X=val_X,
            val_y=val_y,
            strategy_kwargs=dict(
                exchange_deadline_s=exchange_deadline_s,
                resend_timeout_s=resend_timeout_s,
            ),
            deadline_s=deadline_s,
            tracing=tracing,
            world_factory=world_factory,
            backend=backend,
        )
    retry_after = default_retrier().stats()
    return ChaosRunResult(
        lifecycle=lifecycle,
        profile=prof,
        injected=engine.snapshot(),
        retry_stats={
            k: retry_after[k] - retry_before.get(k, 0) for k in retry_after
        },
    )
