"""Checkpoint/restart for distributed training runs.

Long pretraining jobs (the Figure 8 upstream runs are 90-epoch,
multi-thousand-GPU affairs) need restartability.  The seed-tree
construction makes every post-restart epoch replay exactly: the exchange
plan for epoch *e* depends only on ``(seed, e)``, and the source dataset
always holds the originals (§III-A), so a snapshot only has to name which
samples each rank held, not carry their bytes.

Two pieces live here:

* the **replica state** (:func:`replica_state` /
  :func:`restore_replica_state`) — model parameters/buffers, optimizer
  velocity and lr, and the run history: what every rank holds
  identically.  The elastic lifecycle takes it at each epoch start, hands
  it to a rejoining rank, and writes it into every job snapshot;
* the **full-job snapshot** (:func:`save_job_snapshot` /
  :func:`load_job_snapshot` / :func:`latest_complete_snapshot`) — the
  replica state *plus* the default RNG stream, the replica ledger, the
  live group, and each rank's StorageArea manifest and scheduler exchange
  state, committed in two phases (``snap-<epoch>.ckpt`` then a
  ``snap-<epoch>.ok`` marker, both durable via
  :func:`~repro.utils.fileio.atomic_write_bytes`) so a restart only ever
  trusts a snapshot whose write completed.

A snapshot carries ``schema``/``version`` fields and the loader raises a
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

from .history import EpochRecord, RunHistory

__all__ = [
    "CheckpointError",
    "JOB_SNAPSHOT_SCHEMA",
    "JOB_SNAPSHOT_VERSION",
    "replica_state",
    "restore_replica_state",
    "save_job_snapshot",
    "load_job_snapshot",
    "latest_complete_snapshot",
]

#: Schema tag + version of the lifecycle's full-job snapshots.
JOB_SNAPSHOT_SCHEMA = "repro.train.job_snapshot"
JOB_SNAPSHOT_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint file failed validation (wrong schema/version, missing
    keys, an incomplete two-phase write, or a job it does not belong to)."""


# -------------------------------------------------------------- replica state
def replica_state(
    model: Module, optimizer: Optimizer, history: RunHistory | None = None
) -> dict:
    """A copy of the rank-replicated training state that further training
    does not reach (arrays are copied)."""
    velocity = getattr(optimizer, "_velocity", None)
    if velocity is None:
        velocity = [None] * len(optimizer.params)
    return {
        "model_state": model.state_dict(),
        "optimizer_velocity": [None if v is None else v.copy() for v in velocity],
        "optimizer_lr": optimizer.lr,
        "history": None if history is None else {
            "strategy": history.strategy,
            "workers": history.workers,
            "stats": history.stats,
            "records": [
                (r.epoch, r.train_loss, r.val_accuracy, r.lr, r.samples_seen)
                for r in history.records
            ],
        },
    }


def restore_replica_state(
    state: dict, model: Module, optimizer: Optimizer
) -> RunHistory | None:
    """Load :func:`replica_state` output into ``model`` / ``optimizer`` in
    place, bit-exactly; returns the saved history.

    ``state`` may be shared (a snapshot every rank restores from), so the
    model loads copies.  Momentum is written *through* the optimizer's
    buffers: under a flat model they are views of the array its update
    walks, so rebinding the list would leave that array untouched.
    """
    saved = state["optimizer_velocity"]
    if len(saved) != len(optimizer.params):
        raise ValueError(
            f"optimizer has {len(optimizer.params)} params but the state "
            f"holds {len(saved)} velocity buffers"
        )
    model.load_state_dict({k: np.copy(v) for k, v in state["model_state"].items()})
    for v, value in zip(getattr(optimizer, "_velocity", ()), saved):
        if v is not None:
            v[...] = 0.0 if value is None else value
    optimizer.lr = state["optimizer_lr"]
    h = state["history"]
    if h is None:
        return None
    history = RunHistory(strategy=h["strategy"], workers=h["workers"])
    history.stats = h["stats"]
    for rec in h["records"]:
        history.add(EpochRecord(*rec))
    return history


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
    payload = pickle.loads(path.read_bytes())
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: not a checkpoint payload (got {type(payload).__name__})")
    found_schema = payload.get("schema")
    if found_schema != JOB_SNAPSHOT_SCHEMA:
        raise CheckpointError(
            f"{path}: schema mismatch — found {found_schema!r}, "
            f"expected {JOB_SNAPSHOT_SCHEMA!r}"
        )
    found = payload.get("version")
    if found != JOB_SNAPSHOT_VERSION:
        raise CheckpointError(
            f"{path}: version mismatch — found {found!r}, expected {JOB_SNAPSHOT_VERSION}"
        )
    missing = [k for k in _JOB_KEYS if k not in payload]
    if missing:
        raise CheckpointError(f"{path}: missing key(s) {missing} (version {found})")
    return payload


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
