"""Checkpoint/restart for distributed training runs.

Long pretraining jobs (the Figure 8 upstream runs are 90-epoch,
multi-thousand-GPU affairs) need restartability.  A checkpoint captures
the replicated state — model parameters/buffers, optimizer velocity, LR
schedule position and the run history — in a single ``.npz``-style file.
Worker-local shard state is already durable when the strategy uses a
:class:`~repro.shuffle.storage.DiskStorageArea` (files survive restart),
and the seed-tree construction makes every post-restart epoch replay
exactly: the exchange plan for epoch *e* depends only on ``(seed, e)``.

Two checkpoint shapes live here:

* the **replicated checkpoint** (:func:`save_checkpoint` /
  :func:`load_checkpoint`) — the per-run model/optimizer/rng/history file
  a plain ``repro train --checkpoint`` writes;
* the **full-job snapshot** (:func:`save_job_snapshot` /
  :func:`load_job_snapshot` / :func:`latest_complete_snapshot`) — the
  crash-consistent superset the elastic lifecycle writes each epoch: the
  replicated state *plus* the replica ledger, the live group, and each
  rank's StorageArea manifest and scheduler exchange state, committed in
  two phases (``snap-<epoch>.ckpt`` then a ``snap-<epoch>.ok`` marker,
  both durable via :func:`~repro.utils.fileio.atomic_write_bytes`) so a
  restart only ever trusts a snapshot whose write completed.

Every payload carries ``schema``/``version`` fields and loaders raise a
named :class:`CheckpointError` — with the found-vs-expected version or
the missing key — instead of surfacing a raw ``KeyError`` from a stale
or foreign file.
"""

from __future__ import annotations

import io
import json
import pickle
import re
from pathlib import Path

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.utils.fileio import atomic_write_bytes
from repro.utils.rng import default_rng_state, restore_default_rng_state

from .history import EpochRecord, RunHistory

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
    "CheckpointError",
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "JOB_SNAPSHOT_SCHEMA",
    "JOB_SNAPSHOT_VERSION",
    "save_job_snapshot",
    "load_job_snapshot",
    "latest_complete_snapshot",
]

#: Schema tag + version written into every replicated checkpoint.
CHECKPOINT_SCHEMA = "repro.train.checkpoint"
CHECKPOINT_VERSION = 2

#: Schema tag + version of the lifecycle's full-job snapshots.
JOB_SNAPSHOT_SCHEMA = "repro.train.job_snapshot"
JOB_SNAPSHOT_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint file failed validation (wrong schema/version, missing
    keys, or an incomplete two-phase write)."""


class Checkpoint:
    """In-memory checkpoint contents."""

    def __init__(
        self,
        *,
        epoch: int,
        model_state: dict[str, np.ndarray],
        optimizer_state: list[np.ndarray | None],
        history: RunHistory | None = None,
        rng_state: dict | None = None,
    ):
        self.epoch = epoch
        self.model_state = model_state
        self.optimizer_state = optimizer_state
        self.history = history
        self.rng_state = rng_state


def _optimizer_velocity(optimizer: Optimizer) -> list[np.ndarray | None]:
    velocity = getattr(optimizer, "_velocity", None)
    if velocity is None:
        return [None] * len(optimizer.params)
    return [None if v is None else v.copy() for v in velocity]


def _load_optimizer_velocity(optimizer: Optimizer, saved: list[np.ndarray | None]) -> None:
    """Restore momentum *through* the optimizer's buffers: under a flat
    model they are views of the array its update walks, so rebinding the
    list would leave that array untouched."""
    for v, value in zip(getattr(optimizer, "_velocity", ()), saved):
        if v is not None:
            v[...] = 0.0 if value is None else value


def _validate(payload: object, path: Path, schema: str, version: int, keys: tuple) -> dict:
    """Schema/version/key validation shared by both loaders."""
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: not a checkpoint payload (got {type(payload).__name__})")
    found_schema = payload.get("schema")
    if found_schema != schema:
        raise CheckpointError(
            f"{path}: schema mismatch — found {found_schema!r}, expected {schema!r}"
        )
    found = payload.get("version")
    if found != version:
        raise CheckpointError(
            f"{path}: version mismatch — found {found!r}, expected {version}"
        )
    missing = [k for k in keys if k not in payload]
    if missing:
        raise CheckpointError(f"{path}: missing key(s) {missing} (version {found})")
    return payload


def _history_payload(history: RunHistory | None) -> dict | None:
    if history is None:
        return None
    return {
        "strategy": history.strategy,
        "workers": history.workers,
        "stats": history.stats,
        "records": [
            (r.epoch, r.train_loss, r.val_accuracy, r.lr, r.samples_seen)
            for r in history.records
        ],
    }


def _history_restore(h: dict | None) -> RunHistory | None:
    if h is None:
        return None
    history = RunHistory(strategy=h["strategy"], workers=h["workers"])
    history.stats = h["stats"]
    for rec in h["records"]:
        history.add(EpochRecord(*rec))
    return history


def save_checkpoint(
    path: str | Path,
    *,
    model: Module,
    optimizer: Optimizer,
    epoch: int,
    history: RunHistory | None = None,
) -> Path:
    """Serialise the run state to ``path`` (atomic rename + directory fsync)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "version": CHECKPOINT_VERSION,
        "epoch": int(epoch),
        "model_state": model.state_dict(),
        "optimizer_velocity": _optimizer_velocity(optimizer),
        "optimizer_lr": optimizer.lr,
        # The default-stream state (position + seed-tree root): restoring it
        # makes a resumed run replay the exact draws an uninterrupted run
        # would have made, bit for bit.
        "rng": default_rng_state(),
        "history": _history_payload(history),
    }
    buf = io.BytesIO()
    pickle.dump(payload, buf, protocol=pickle.HIGHEST_PROTOCOL)
    return atomic_write_bytes(path, buf.getvalue())


_CHECKPOINT_KEYS = (
    "epoch", "model_state", "optimizer_velocity", "optimizer_lr", "history",
)


def load_checkpoint(
    path: str | Path,
    *,
    model: Module | None = None,
    optimizer: Optimizer | None = None,
) -> Checkpoint:
    """Read a checkpoint; optionally restore ``model``/``optimizer`` in place.

    Returns the :class:`Checkpoint` so callers can resume at
    ``checkpoint.epoch + 1``.  Raises :class:`CheckpointError` (naming the
    found and expected versions, or the missing keys) on anything that is
    not a complete version-{CHECKPOINT_VERSION} checkpoint.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    payload = _validate(
        pickle.loads(path.read_bytes()),
        path,
        CHECKPOINT_SCHEMA,
        CHECKPOINT_VERSION,
        _CHECKPOINT_KEYS,
    )
    ckpt = Checkpoint(
        epoch=payload["epoch"],
        model_state=payload["model_state"],
        optimizer_state=payload["optimizer_velocity"],
        history=_history_restore(payload["history"]),
        rng_state=payload.get("rng"),
    )
    if ckpt.rng_state is not None:
        # Asserts the seed-tree position before splicing the stream back in
        # (pre-rng checkpoints simply skip the restore).
        restore_default_rng_state(ckpt.rng_state)
    if model is not None:
        model.load_state_dict(ckpt.model_state)
    if optimizer is not None:
        if len(ckpt.optimizer_state) != len(optimizer.params):
            raise ValueError(
                f"optimizer has {len(optimizer.params)} params but checkpoint "
                f"holds {len(ckpt.optimizer_state)} velocity buffers"
            )
        _load_optimizer_velocity(optimizer, ckpt.optimizer_state)
        optimizer.lr = payload["optimizer_lr"]
    return ckpt


# ------------------------------------------------------------- job snapshots
_SNAP_RE = re.compile(r"^snap-(\d+)\.ckpt$")

#: Keys a full-job snapshot must carry beyond the replicated state.
_JOB_KEYS = (
    "epoch", "model_state", "optimizer_velocity", "optimizer_lr", "rng",
    "history", "seed", "total_workers", "live_group", "ledger",
    "manifests", "scheduler_states",
)


def _snap_paths(directory: str | Path, epoch: int) -> tuple[Path, Path]:
    directory = Path(directory)
    return directory / f"snap-{epoch}.ckpt", directory / f"snap-{epoch}.ok"


def save_job_snapshot(directory: str | Path, payload: dict) -> Path:
    """Write one crash-consistent full-job snapshot under ``directory``.

    Two-phase commit: the payload lands durably as ``snap-<epoch>.ckpt``
    first, then the ``snap-<epoch>.ok`` marker (also durable) publishes
    it.  A crash between the phases leaves a data file without a marker,
    which :func:`latest_complete_snapshot` ignores — restart never trusts
    a torn snapshot.  ``payload`` must carry every key in the job schema;
    ``schema``/``version`` are stamped here.
    """
    payload = dict(payload)
    payload["schema"] = JOB_SNAPSHOT_SCHEMA
    payload["version"] = JOB_SNAPSHOT_VERSION
    missing = [k for k in _JOB_KEYS if k not in payload]
    if missing:
        raise CheckpointError(f"job snapshot payload missing key(s) {missing}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data_path, marker_path = _snap_paths(directory, int(payload["epoch"]))
    buf = io.BytesIO()
    pickle.dump(payload, buf, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(data_path, buf.getvalue())
    marker = {"schema": JOB_SNAPSHOT_SCHEMA, "epoch": int(payload["epoch"])}
    atomic_write_bytes(marker_path, (json.dumps(marker) + "\n").encode())
    return data_path


def load_job_snapshot(path: str | Path) -> dict:
    """Read and validate one full-job snapshot payload."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no job snapshot at {path}")
    return _validate(
        pickle.loads(path.read_bytes()),
        path,
        JOB_SNAPSHOT_SCHEMA,
        JOB_SNAPSHOT_VERSION,
        _JOB_KEYS,
    )


def latest_complete_snapshot(directory: str | Path) -> Path | None:
    """The highest-epoch snapshot whose commit marker exists, or ``None``.

    Only snapshots that finished both phases count; a ``.ckpt`` without
    its ``.ok`` marker is a torn write from a crash mid-checkpoint.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best: tuple[int, Path] | None = None
    for child in directory.iterdir():
        m = _SNAP_RE.match(child.name)
        if not m:
            continue
        epoch = int(m.group(1))
        if not _snap_paths(directory, epoch)[1].exists():
            continue
        if best is None or epoch > best[0]:
            best = (epoch, child)
    return None if best is None else best[1]
