"""Exchange hot-path micro-benchmark.

Runs the PLS exchange (``Scheduler.run_exchange``) over the in-process
world and reports wall time next to the world's copy and pool counters,
which give a machine-independent account of the work done: a sample is
gathered once into a pooled frame and copied once out of it at install, so
``bytes_copied`` should sit at about twice ``sent_bytes``, and the frames
released at commit should serve the next epoch's acquires.
"""

from __future__ import annotations

import time
import zlib
from typing import Any

import numpy as np

from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea

__all__ = ["bench_exchange", "exchange_q_sweep"]


def _exchange_worker(
    comm, q: float, samples: int, shape: tuple, epochs: int, seed: int
) -> dict:
    storage = StorageArea()
    rng = np.random.default_rng(seed + comm.rank)
    for _ in range(samples):
        storage.add(rng.random(shape).astype(np.float32), int(rng.integers(0, 10)))
    sched = Scheduler(storage, comm, fraction=q, seed=seed)
    comm.barrier()
    t0 = time.perf_counter()
    for epoch in range(epochs):
        sched.run_exchange(epoch)
    comm.barrier()
    wall = time.perf_counter() - t0
    return {
        "wall_time_s": wall,
        "sent_samples": sched.total_sent_samples,
        "sent_bytes": sched.total_sent_bytes,
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
    epochs: int, seed: int, backend: str | None = None,
) -> dict[str, Any]:
    result = run_spmd(
        _exchange_worker,
        ranks,
        args=(q, samples, tuple(shape), epochs, seed),
        backend=backend,
    )
    per_rank = list(result)
    world = result.world
    wall = max(r["wall_time_s"] for r in per_rank)
    sent_samples = sum(r["sent_samples"] for r in per_rank)
    sent_bytes = sum(r["sent_bytes"] for r in per_rank)
    pool = world.pool.stats()
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

    ``ratios.bytes_copied_per_sent_byte`` and ``ratios.pool_hit_rate`` are
    deterministic for a given configuration (envelope bytes over logical
    sample bytes; acquires served from a free list), so they are comparable
    across machines; wall time is not.  ``backend`` selects the
    rank host (``"threads"`` / ``"procs"``; ``None`` defers to
    ``REPRO_BACKEND``).
    """
    config = dict(ranks=ranks, samples=samples, shape=shape, q=q, epochs=epochs, seed=seed)
    run = _run_exchange(backend=backend, **config)
    return {
        "config": {**config, "shape": list(shape), "backend": backend},
        "exchange": run,
        "ratios": {
            "bytes_copied_per_sent_byte": (
                run["bytes_copied"] / run["sent_bytes"] if run["sent_bytes"] else 0.0
            ),
            "pool_hit_rate": (
                run["pool"]["hits"] / run["pool"]["acquires"]
                if run["pool"]["acquires"] else 0.0
            ),
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
