"""Exchange hot-path benchmark, once under each communicator backend.

Runs the PLS exchange the way the training loop drives it — one window
posted per iteration, a collective between iterations — and reports the
world's copy, pool and pipe counters, which give a machine-independent
account of the work done: a sample is gathered once into a pooled frame and
copied once out of it when the frame is serviced, so ``bytes_copied``
should sit at about twice ``sent_bytes``; a frame goes back to its sender
on ACK, so a rank has a few windows of frames out however long the epoch,
and what it returns at commit serves the next epoch's acquires.

The two runs are the same exchange (same seed, same plan, same CRC/ACK
protocol), so their post-exchange shards must be bit-identical
(order-independent per-rank content checksums); the ``procs`` run must
leave ``/dev/shm`` clean, and its brokers count the pipe round trips per
wire name.  Nothing is timed: ``benchmarks/perf`` judges speed.
"""

from __future__ import annotations

import zlib
from typing import Any

import numpy as np

from repro.mpi import run_spmd
from repro.mpi.shm_pool import live_segments
from repro.shuffle import Scheduler, StorageArea

__all__ = ["bench_exchange"]

#: The backends the exchange runs on, the reference first.
_BACKENDS = ("threads", "procs")

#: The batch size ``bench_exchange`` hands its scheduler: with Q = 0.5 a
#: window is two plan rounds, so even the smoke configuration (24 rounds an
#: epoch) has 12 windows — more than twice ``WINDOWS_IN_FLIGHT_BOUND``, so
#: frames that stay out until the commit show.
_BATCH_SIZE = 4


def _exchange_worker(
    comm, q: float, samples: int, shape: tuple, epochs: int, seed: int
) -> dict:
    storage = StorageArea()
    rng = np.random.default_rng(seed + comm.rank)
    for _ in range(samples):
        storage.add(rng.random(shape).astype(np.float32), int(rng.integers(0, 10)))
    sched = Scheduler(storage, comm, fraction=q, seed=seed, batch_size=_BATCH_SIZE)
    comm.barrier()
    warm = None
    for epoch in range(epochs):
        sched.scheduling(epoch)
        while sched.communicate_chunk():
            comm.barrier()  # the training step's gradient allreduce
        sched.synchronize()
        sched.clean_local_storage()
        if epoch == 0:
            comm.barrier()  # every rank has returned its frames
            warm = comm.pool.stats() if comm.rank == 0 else None
    comm.barrier()
    return {
        "sent_samples": sched.total_sent_samples,
        "sent_bytes": sched.total_sent_bytes,
        "max_windows_in_flight": sched.max_windows_in_flight,
        "pool_after_epoch0": warm,
        "shard_checksum": _shard_checksum(storage),
    }


def _shard_checksum(storage: StorageArea) -> int:
    """Order-independent content hash of the hot shard (equivalence probe)."""
    acc = 0
    for _sid, sample, label in storage.items():
        acc ^= zlib.crc32(np.ascontiguousarray(sample).tobytes() + bytes([label % 251]))
    return acc


def _run_exchange(
    *, backend: str, ranks: int, samples: int, shape: tuple, q: float,
    epochs: int, seed: int,
) -> dict[str, Any]:
    result = run_spmd(
        _exchange_worker,
        ranks,
        args=(q, samples, tuple(shape), epochs, seed),
        backend=backend,
    )
    per_rank = list(result)
    world = result.world
    sent_bytes = sum(r["sent_bytes"] for r in per_rank)
    bytes_copied = world.total_bytes_copied()
    pool = world.pool.stats()
    warm = per_rank[0]["pool_after_epoch0"]
    return {
        # Under procs, per rank: pipe wire name -> [round trips, casts].
        "rpc": world.rpc_counts or [],
        "messages_sent": sum(world.messages_sent),
        "sent_samples": sum(r["sent_samples"] for r in per_rank),
        "sent_bytes": sent_bytes,
        "bytes_copied": bytes_copied,
        "copies": sum(world.copies),
        "allocations": pool["misses"],
        "pool": pool,
        "max_windows_in_flight": max(r["max_windows_in_flight"] for r in per_rank),
        "shard_checksums": sorted(r["shard_checksum"] for r in per_rank),
        "ratios": {
            "bytes_copied_per_sent_byte": bytes_copied / sent_bytes if sent_bytes else 0.0,
            # Over the epochs after the first (whose acquires all allocate).
            "pool_hit_rate": (pool["hits"] - warm["hits"])
            / max(1, pool["acquires"] - warm["acquires"]),
        },
    }


def bench_exchange(
    *, ranks: int, samples: int, shape: tuple, q: float, epochs: int, seed: int
) -> dict[str, Any]:
    """Run the exchange under ``threads`` and under ``procs`` and report the counts.

    Per backend (``modes``): copies, pool traffic and the deterministic
    ratios ``bytes_copied_per_sent_byte`` (envelope bytes over logical
    sample bytes) and ``pool_hit_rate`` (acquires served from a free list,
    over the epochs after the first), plus ``max_windows_in_flight``.
    Across the runs: ``identical_shards``, ``shm_clean`` (no
    ``/dev/shm`` segment left after the ``procs`` run) and
    ``ratios.round_trips_per_frame`` (pipe round trips under ``procs`` per
    frame sent).
    """
    config = dict(ranks=ranks, samples=samples, shape=shape, q=q, epochs=epochs, seed=seed)
    modes = {backend: _run_exchange(backend=backend, **config) for backend in _BACKENDS}
    leaked = live_segments()
    procs = modes["procs"]
    # A clean exchange posts each frame once, and one ACK for it.
    frames = procs["messages_sent"] / 2
    return {
        "config": {**config, "shape": list(shape), "batch_size": _BATCH_SIZE},
        "modes": modes,
        "ratios": {
            "round_trips_per_frame": (
                sum(calls for rank in procs["rpc"] for calls, _casts in rank.values())
                / frames
            ),
        },
        "identical_shards": modes["threads"]["shard_checksums"] == procs["shard_checksums"],
        "shm_clean": not leaked,
        "leaked_segments": leaked,
    }
