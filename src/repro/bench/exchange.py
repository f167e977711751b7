"""Exchange hot-path micro-benchmark.

Runs the PLS exchange the way the training loop drives it — one window
posted per iteration, a collective between iterations — over the in-process
world and reports wall time next to the world's copy and pool counters,
which give a machine-independent account of the work done: a sample is
gathered once into a pooled frame and copied once out of it when the frame
is serviced, so ``bytes_copied`` should sit at about twice ``sent_bytes``;
a frame goes back to its sender on ACK, so a rank has a few windows of
frames out however long the epoch, and what it returns at commit serves
the next epoch's acquires.
"""

from __future__ import annotations

import time
import zlib
from typing import Any

import numpy as np

from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea

__all__ = ["bench_exchange", "exchange_q_sweep"]

#: The batch size ``bench_exchange`` hands its scheduler: with Q = 0.5 a
#: window is two plan rounds, so even the smoke configuration (24 rounds an
#: epoch) has 12 windows — more than twice ``WINDOWS_IN_FLIGHT_BOUND``, so
#: frames that stay out until the commit show.
_BATCH_SIZE = 4


def _exchange_worker(
    comm, q: float, samples: int, shape: tuple, epochs: int, seed: int,
    batch_size: int,
) -> dict:
    storage = StorageArea()
    rng = np.random.default_rng(seed + comm.rank)
    for _ in range(samples):
        storage.add(rng.random(shape).astype(np.float32), int(rng.integers(0, 10)))
    sched = Scheduler(storage, comm, fraction=q, seed=seed, batch_size=batch_size)
    comm.barrier()
    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    return {
        "wall_time_s": wall,
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
    *, ranks: int, samples: int, shape: tuple, q: float,
    epochs: int, seed: int, batch_size: int = 32, backend: str | None = None,
) -> dict[str, Any]:
    result = run_spmd(
        _exchange_worker,
        ranks,
        args=(q, samples, tuple(shape), epochs, seed, batch_size),
        backend=backend,
    )
    per_rank = list(result)
    world = result.world
    wall = max(r["wall_time_s"] for r in per_rank)
    sent_samples = sum(r["sent_samples"] for r in per_rank)
    sent_bytes = sum(r["sent_bytes"] for r in per_rank)
    pool = world.pool.stats()
    warm = per_rank[0]["pool_after_epoch0"]
    return {
        # Under procs, per rank: pipe wire name -> [round trips, casts].
        "rpc": world.rpc_counts or [],
        "messages_sent": sum(world.messages_sent),
        "wall_time_s": wall,
        "ops_per_s": sent_samples / wall if wall > 0 else 0.0,
        "sent_samples": sent_samples,
        "sent_bytes": sent_bytes,
        "bytes_copied": world.total_bytes_copied(),
        "copies": sum(world.copies),
        "allocations": pool["misses"],
        "pool": pool,
        # Over the epochs after the first (whose acquires all allocate).
        "steady_pool_hit_rate": (pool["hits"] - warm["hits"])
        / max(1, pool["acquires"] - warm["acquires"]),
        "max_windows_in_flight": max(r["max_windows_in_flight"] for r in per_rank),
        "shard_checksums": sorted(r["shard_checksum"] for r in per_rank),
    }


def bench_exchange(
    *,
    ranks: int = 4,
    samples: int = 128,
    shape: tuple = (32, 32),
    q: float = 0.5,
    epochs: int = 3,
    seed: int = 0,
    backend: str | None = None,
) -> dict[str, Any]:
    """Run the exchange and report its time, copies and pool traffic.

    ``ratios.bytes_copied_per_sent_byte`` is deterministic for a given
    configuration (envelope bytes over logical sample bytes) and
    ``ratios.pool_hit_rate`` (acquires served from a free list, over the
    epochs after the first) and ``exchange.max_windows_in_flight`` have
    deterministic bounds, so they are comparable across machines; wall time
    is not.  ``backend`` selects the rank host (``"threads"`` / ``"procs"``;
    ``None`` defers to ``REPRO_BACKEND``).
    """
    config = dict(ranks=ranks, samples=samples, shape=shape, q=q, epochs=epochs, seed=seed)
    run = _run_exchange(backend=backend, batch_size=_BATCH_SIZE, **config)
    return {
        "config": {
            **config, "shape": list(shape), "batch_size": _BATCH_SIZE, "backend": backend,
        },
        "exchange": run,
        "ratios": {
            "bytes_copied_per_sent_byte": (
                run["bytes_copied"] / run["sent_bytes"] if run["sent_bytes"] else 0.0
            ),
            "pool_hit_rate": run["steady_pool_hit_rate"],
        },
    }


def exchange_q_sweep(
    *,
    ranks: int = 4,
    samples: int = 128,
    shape: tuple = (32, 32),
    qs: tuple = (0.25, 0.5, 1.0),
    epochs: int = 2,
    seed: int = 0,
    backend: str | None = None,
) -> list[dict[str, Any]]:
    """Exchange wall time as a function of the exchange fraction Q."""
    rows = []
    for q in qs:
        r = _run_exchange(
            ranks=ranks, samples=samples, shape=shape,
            q=q, epochs=epochs, seed=seed, backend=backend,
        )
        rows.append(
            {
                "q": q,
                "wall_time_s": r["wall_time_s"],
                "ops_per_s": r["ops_per_s"],
                "sent_samples": r["sent_samples"],
                "bytes_copied": r["bytes_copied"],
            }
        )
    return rows
