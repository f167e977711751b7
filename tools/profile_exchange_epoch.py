#!/usr/bin/env python
"""Profile the exchange's share of one PLS epoch (sibling of
``profile_nn_step.py``; ROADMAP item 1(b)'s deliverable).

Runs the epoch the ``exchange_*`` benchmark workloads spend their time in —
2 ranks on the ``threads`` backend, ``partial-1`` (Q = 1), 2,048 samples of
12 KB, the ``mlp`` model, batch 32 — by calling ``train_one_epoch`` directly,
outside the benchmark harness, and prints

* ms per epoch (min / median / max over the timed epochs, mean of the two
  ranks) spent in each part of the exchange the training thread executes:
  **plan** (``scheduling``), **post** (``communicate_chunk`` +
  ``communicate``: posting, and the sweeps under compute that verify, copy
  out and ACK what has arrived), **complete** (``_complete_rounds``: the
  residue of that in ``synchronize`` and the commit collective),
  **commit-decode** (``_apply_commit``: the engine's commit carried out —
  frames back to the pool, staged rows merged),
  **install** (``clean_local_storage``), and the loader's
  **collate** for comparison;
* how many Python-level calls one epoch's exchange hooks (``begin_epoch`` /
  ``on_iteration`` / ``end_epoch``) make into the codec and storage entry
  points and into ``ndarray.copy``, counted by ``cProfile`` in one extra
  epoch that is not timed.

An epoch moves 1,024 samples per rank in 64 frames per rank, so a count near
64 is per frame and a count near 1,024 is per sample.  Timings are taken
with the profiler off; the two ranks share the interpreter lock, so a phase
also pays for the time it waits to get the lock back.  BLAS is pinned to one
thread so the numbers do not depend on the core count.

Usage: ``python tools/profile_exchange_epoch.py [--epochs N]``
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

RANKS = 2
N_SAMPLES = 2048
N_VAL = 256
SAMPLE_SHAPE = (3072,)
CLASSES = 8
BATCH = 32
SEED = 1

#: Rows of the timing table, in the order the epoch runs them.
PHASES = ("plan", "post", "complete", "commit-decode", "install", "collate")

#: (file name, function name) -> label of the calls to count.  Entry points
#: a tree does not have simply count zero.
COUNTED = {
    ("codec.py", "pack_samples"): "pack_samples",
    ("codec.py", "unpack_samples"): "unpack_samples",
    ("storage.py", "get"): "StorageArea.get",
    ("storage.py", "take"): "StorageArea.take",
    ("storage.py", "stage"): "StorageArea.stage",
    ("storage.py", "add"): "StorageArea.add",
    ("storage.py", "add_many"): "StorageArea.add_many",
    ("storage.py", "demote"): "StorageArea.demote",
    ("~", "<method 'copy' of 'numpy.ndarray' objects>"): "ndarray.copy",
}

_rank_state = threading.local()


def _timed(fn, phase: str):
    """``fn`` with its wall time added to the calling rank's ``phase``."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _rank_state.acc[phase] += time.perf_counter() - t0

    return wrapper


class _CountedHooks:
    """The strategy, with ``profiler`` running inside its three exchange
    hooks (everything else is forwarded untouched)."""

    def __init__(self, inner, profiler: cProfile.Profile) -> None:
        self._inner = inner
        self._profiler = profiler

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def _profiled(self, hook, *args) -> None:
        self._profiler.enable()
        try:
            hook(*args)
        finally:
            self._profiler.disable()

    def begin_epoch(self, epoch: int) -> None:
        self._profiled(self._inner.begin_epoch, epoch)

    def on_iteration(self) -> None:
        self._profiled(self._inner.on_iteration)

    def end_epoch(self) -> None:
        self._profiled(self._inner.end_epoch)


def _call_counts(profiler: cProfile.Profile) -> dict[str, int]:
    counts = dict.fromkeys(COUNTED.values(), 0)
    for (filename, _line, name), row in pstats.Stats(profiler).stats.items():
        label = COUNTED.get((Path(filename).name, name))
        if label is not None:
            counts[label] += row[1]
    return counts


def main(argv: list[str] | None = None) -> int:
    """Run the profile and print the report."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=6, help="timed epochs after warm-up")
    args = parser.parse_args(argv)
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")

    # Before numpy loads its BLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    import repro.data.dataloader as dataloader
    from repro.data.dataset import TensorDataset
    from repro.mpi.launcher import run_spmd
    from repro.shuffle.partial import PartialLocalShuffle
    from repro.shuffle.scheduler import Scheduler
    from repro.train.trainer import TrainConfig, build_replica, train_one_epoch

    for phase, owner, names in (
        ("plan", Scheduler, ("scheduling",)),
        ("post", Scheduler, ("communicate_chunk", "communicate")),
        ("complete", Scheduler, ("_complete_rounds",)),
        ("commit-decode", Scheduler, ("_apply_commit",)),
        ("install", Scheduler, ("clean_local_storage",)),
        ("collate", dataloader, ("default_collate",)),
    ):
        for name in names:
            setattr(owner, name, _timed(getattr(owner, name), phase))

    rng = np.random.default_rng(SEED)
    total = N_SAMPLES + N_VAL
    centers = rng.normal(size=(CLASSES, *SAMPLE_SHAPE)).astype(np.float32)
    labels = rng.integers(0, CLASSES, size=total)
    features = centers[labels] + 2.0 * rng.normal(size=(total, *SAMPLE_SHAPE)).astype(np.float32)
    train_x, train_y = np.ascontiguousarray(features[:N_SAMPLES]), labels[:N_SAMPLES]
    val_x, val_y = features[N_SAMPLES:], labels[N_SAMPLES:]
    dataset = TensorDataset(train_x, train_y)
    epochs = 1 + args.epochs + 1  # warm-up, timed, counted
    config = TrainConfig(
        model="mlp", in_shape=SAMPLE_SHAPE, num_classes=CLASSES, epochs=epochs,
        batch_size=BATCH, seed=SEED,
    )

    def rank_main(comm):
        model, optimizer, schedule = build_replica(config, comm)
        strategy = PartialLocalShuffle(1.0)
        strategy.setup(
            comm, dataset, labels=train_y, partition=config.partition, seed=config.seed
        )
        profiler = cProfile.Profile()
        timed = []
        for epoch in range(epochs):
            _rank_state.acc = acc = defaultdict(float)
            hooks = strategy if epoch < epochs - 1 else _CountedHooks(strategy, profiler)
            t0 = time.perf_counter()
            train_one_epoch(
                comm, config, hooks, model, optimizer, epoch, schedule.step(epoch),
                val_x, val_y,
            )
            acc["epoch"] = time.perf_counter() - t0
            if 1 <= epoch < epochs - 1:
                timed.append(dict(acc))
        stats = strategy.stats()
        return timed, _call_counts(profiler), stats["sent_samples"] // epochs

    results = list(run_spmd(rank_main, RANKS, copy_on_send=False, deadline_s=600.0))

    def per_epoch(phase: str) -> list[float]:
        """ms in ``phase`` per timed epoch, mean of the ranks."""
        return [
            1e3 * statistics.mean(timed[e].get(phase, 0.0) for timed, _c, _s in results)
            for e in range(args.epochs)
        ]

    print(f"exchange epoch: {RANKS} ranks on threads, partial-1, {N_SAMPLES} samples of "
          f"{4 * SAMPLE_SHAPE[0]} B, mlp, batch {BATCH}, OPENBLAS_NUM_THREADS=1, "
          f"{args.epochs} epochs after 1 warm-up")
    print(f"samples exchanged per rank per epoch: {results[0][2]}")
    print(f"{'ms per epoch':<14} {'min':>8} {'median':>8} {'max':>8}")
    exposed = [0.0] * args.epochs
    for phase in (*PHASES, "epoch"):
        values = per_epoch(phase)
        if phase not in ("collate", "epoch"):
            exposed = [a + b for a, b in zip(exposed, values)]
        print(f"{phase:<14} {min(values):8.2f} {statistics.median(values):8.2f} "
              f"{max(values):8.2f}")
    print(f"{'exchange sum':<14} {min(exposed):8.2f} {statistics.median(exposed):8.2f} "
          f"{max(exposed):8.2f}   (plan + post + complete + commit-decode + install)")
    print("Python-level calls per epoch inside begin_epoch / on_iteration / end_epoch "
          "(mean of the ranks):")
    for label in COUNTED.values():
        print(f"  {label:<22} {statistics.mean(c[label] for _t, c, _s in results):8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
