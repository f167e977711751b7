#!/usr/bin/env python
"""Profile the exchange's share of one PLS epoch (sibling of
``profile_nn_step.py``; ROADMAP item 1(b)'s deliverable).

Runs the epoch the ``exchange_*`` benchmark workloads spend their time in —
2 ranks on the ``threads`` backend (or ``--backend procs``), ``partial-1``
(Q = 1), 2,048 samples of 12 KB, the ``mlp`` model, batch 32 — by calling
``train_one_epoch`` directly, outside the benchmark harness, and prints

* ms per epoch (min / median / max over the timed epochs, mean of the two
  ranks) spent in each part of the exchange the training thread executes:
  **plan** (``scheduling``), **post** (``communicate_chunk`` +
  ``communicate``: posting, and the sweeps under compute that verify, copy
  out and ACK what has arrived), **complete** (``_complete_rounds``: the
  residue of that in ``synchronize`` and the commit collective),
  **commit-decode** (``_apply_commit``: the engine's commit carried out —
  frames back to the pool, staged rows merged),
  **install** (``clean_local_storage``), and, for comparison, the loader's
  **collate** and the trainer's **ge_wu** phase (the gradient allreduce
  and the weight update, as ``flight.take_phases`` reports it);
* how many Python-level calls one epoch's exchange hooks (``begin_epoch`` /
  ``on_iteration`` / ``end_epoch``) make into the codec and storage entry
  points and into ``ndarray.copy``, counted by ``cProfile`` in one extra
  epoch that is not timed;
* on ``procs``, the pipe round trips per epoch (median of the timed
  epochs, rank 0) per wire name: what ``world.rpc_counts`` counts,
  taken per epoch at the rank's end of the pipe, with the run's total
  checked against ``world.rpc_counts``; and beside them the entries rank 0
  put into its rank-to-rank rings and took out of them per epoch (a tree
  without the rings prints none).

An epoch moves 1,024 samples per rank in 64 frames per rank, so a count near
64 is per frame and a count near 1,024 is per sample.  Timings are taken
with the profiler off; on ``threads`` the two ranks share the interpreter
lock, so a phase also pays for the time it waits to get the lock back.
BLAS is pinned to one thread so the numbers do not depend on the core
count.

Usage: ``python tools/profile_exchange_epoch.py [--epochs N] [--backend procs]``
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
PHASES = ("plan", "post", "complete", "commit-decode", "install", "collate", "ge_wu")

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
    ("storage.py", "remove"): "StorageArea.remove",
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


def _stash_ge_wu(take_phases):
    """``take_phases`` with the epoch's ``ge_wu`` kept for the calling rank
    (the trainer's last call in an epoch is the one that sticks)."""

    def wrapper(self):
        phases = take_phases(self)
        _rank_state.acc["ge_wu"] = phases.get("ge_wu", 0.0)
        return phases

    return wrapper


def _counted_call(call):
    """``_Rpc.call`` counting each round trip into the calling rank's
    current ``{wire name: round trips}``, as the broker counts it."""

    def wrapper(self, method, *args):
        counts = _rank_state.rpc
        counts[method] = counts.get(method, 0) + 1
        return call(self, method, *args)

    return wrapper


def _counted_ring(board_cls) -> None:
    """Count the entries the calling rank puts into and drains out of its
    rank-to-rank rings into its current ``[puts, takes]`` (not its flight
    events, which go on ring ``(rank, rank)``)."""
    put, drain = board_cls.put, board_cls.drain

    def counted_put(self, src, dest, entry):
        done = put(self, src, dest, entry)
        _rank_state.ring[0] += done and src != dest
        return done

    def counted_drain(self, dest):
        got = drain(self, dest)
        _rank_state.ring[1] += len(got)
        return got

    board_cls.put, board_cls.drain = counted_put, counted_drain


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
    parser.add_argument("--backend", choices=("threads", "procs"), default="threads")
    args = parser.parse_args(argv)
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")

    # Before numpy loads its BLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    import repro.data.dataloader as dataloader
    from repro.data.dataset import TensorDataset
    import repro.mpi.procs as procs
    from repro.mpi.launcher import run_spmd
    from repro.obs.telemetry.flight import FlightRecorder
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
    FlightRecorder.take_phases = _stash_ge_wu(FlightRecorder.take_phases)
    procs._Rpc.call = _counted_call(procs._Rpc.call)  # patched before the ranks fork
    if hasattr(procs, "_Board"):
        _counted_ring(procs._Board)

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
        _rank_state.rpc, _rank_state.ring = {}, [0, 0]  # setup
        model, optimizer = build_replica(config, comm)
        strategy = PartialLocalShuffle(1.0)
        strategy.setup(
            comm, dataset, labels=train_y, partition=config.partition, seed=config.seed
        )
        profiler = cProfile.Profile()
        timed, rpc, ring = [], [_rank_state.rpc], [_rank_state.ring]
        for epoch in range(epochs):
            _rank_state.acc = acc = defaultdict(float)
            _rank_state.rpc, _rank_state.ring = {}, [0, 0]
            rpc.append(_rank_state.rpc)
            ring.append(_rank_state.ring)
            hooks = strategy if epoch < epochs - 1 else _CountedHooks(strategy, profiler)
            t0 = time.perf_counter()
            train_one_epoch(comm, config, hooks, model, optimizer, epoch, val_x, val_y)
            acc["epoch"] = time.perf_counter() - t0
            if 1 <= epoch < epochs - 1:
                timed.append(dict(acc))
        stats = strategy.stats()
        return timed, _call_counts(profiler), stats["sent_samples"] // epochs, rpc, ring

    result = run_spmd(rank_main, RANKS, deadline_s=600.0, backend=args.backend)
    results = [r[:3] for r in result]

    def per_epoch(phase: str) -> list[float]:
        """ms in ``phase`` per timed epoch, mean of the ranks."""
        return [
            1e3 * statistics.mean(timed[e].get(phase, 0.0) for timed, _c, _s in results)
            for e in range(args.epochs)
        ]

    print(f"exchange epoch: {RANKS} ranks on {args.backend}, partial-1, {N_SAMPLES} samples of "
          f"{4 * SAMPLE_SHAPE[0]} B, mlp, batch {BATCH}, OPENBLAS_NUM_THREADS=1, "
          f"{args.epochs} epochs after 1 warm-up")
    print(f"samples exchanged per rank per epoch: {results[0][2]}")
    print(f"{'ms per epoch':<14} {'min':>8} {'median':>8} {'max':>8}")
    exposed = [0.0] * args.epochs
    for phase in (*PHASES, "epoch"):
        values = per_epoch(phase)
        if phase not in ("collate", "ge_wu", "epoch"):
            exposed = [a + b for a, b in zip(exposed, values)]
        print(f"{phase:<14} {min(values):8.2f} {statistics.median(values):8.2f} "
              f"{max(values):8.2f}")
    print(f"{'exchange sum':<14} {min(exposed):8.2f} {statistics.median(exposed):8.2f} "
          f"{max(exposed):8.2f}   (plan + post + complete + commit-decode + install)")
    print("Python-level calls per epoch inside begin_epoch / on_iteration / end_epoch "
          "(mean of the ranks):")
    for label in COUNTED.values():
        print(f"  {label:<22} {statistics.mean(c[label] for _t, c, _s in results):8.1f}")
    if args.backend == "procs":
        _print_pipe(result[0][3], result.world.rpc_counts[0])
        if hasattr(procs, "_Board"):
            steady = result[0][4][2:-1]
            print("ring entries per epoch, rank 0 (median of the timed epochs): "
                  f"{statistics.median(p for p, _t in steady):.1f} put, "
                  f"{statistics.median(t for _p, t in steady):.1f} taken")
    return 0


def _print_pipe(counted: list[dict], recorded: dict) -> None:
    """Rank 0's pipe round trips per timed epoch, by wire name, from what this
    tool ``counted`` per epoch (setup, warm-up, timed, counted), and its run
    total against what the broker ``recorded`` in ``world.rpc_counts``."""
    steady = counted[2:-1]
    names = sorted({name for counts in steady for name in counts})
    rows = [(name, statistics.median(c.get(name, 0) for c in steady)) for name in names]
    print("pipe round trips per epoch, rank 0 (median of the timed epochs):")
    print(f"  {'wire name':<24} {'round trips':>11}")
    for name, trips in sorted(rows, key=lambda row: (-row[1], row[0])):
        print(f"  {name:<24} {trips:11.1f}")
    total = [sum(counts.values()) for counts in steady]
    print(f"  {'all round trips':<24} {statistics.median(total):11.1f}")
    whole = sum(sum(counts.values()) for counts in counted)
    print(f"round trips over the whole run: {whole} counted per epoch, "
          f"{sum(recorded.values())} in world.rpc_counts")


if __name__ == "__main__":
    sys.exit(main())
