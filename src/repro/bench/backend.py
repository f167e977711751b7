"""Threads-vs-procs backend comparison on the exchange hot path.

Runs the *same* exchange (same seed, same plan, same CRC/ACK protocol)
once under each communicator backend.  What is gated is deterministic:
both backends must produce bit-identical post-exchange shards
(order-independent per-rank content checksums), and the shared-memory pool
must end the run balanced with a clean ``/dev/shm`` namespace.  The wall
times (and their ``procs_speedup`` ratio) are recorded, never gated — a
millisecond smoke exchange says nothing about which backend is faster;
``compute_procs`` / ``exchange_procs`` in ``benchmarks/perf/`` are the judge
of that question.
"""

from __future__ import annotations

import os
from typing import Any

from repro.mpi.shm_pool import live_segments

from .exchange import _run_exchange

__all__ = ["bench_backend"]


def bench_backend(
    *,
    ranks: int = 4,
    samples: int = 128,
    shape: tuple = (32, 32),
    q: float = 0.5,
    epochs: int = 3,
    seed: int = 0,
) -> dict[str, Any]:
    """Run the exchange under both backends and report the comparison.

    Returns a dict with per-backend mode reports (wall time, bytes, pool
    stats), the ``procs_speedup`` ratio, ``identical_shards`` (must always
    hold), ``shm_clean`` (no leaked ``/dev/shm`` segments after the procs
    run), and the host's core count.
    """
    common = dict(
        ranks=ranks, samples=samples, shape=shape, q=q, epochs=epochs, seed=seed,
    )
    threads = _run_exchange(backend="threads", **common)
    threads["backend"] = "threads"
    procs = _run_exchange(backend="procs", **common)
    procs["backend"] = "procs"
    leaked = live_segments()
    if threads["shard_checksums"] != procs["shard_checksums"]:
        raise AssertionError(
            "procs backend diverged from the threads reference: "
            f"{procs['shard_checksums']} != {threads['shard_checksums']}"
        )
    return {
        "config": {
            "ranks": ranks, "samples": samples, "shape": list(shape),
            "q": q, "epochs": epochs, "seed": seed,
        },
        "cores": os.cpu_count() or 1,
        "modes": {"threads": threads, "procs": procs},
        "ratios": {
            "procs_speedup": (
                threads["wall_time_s"] / procs["wall_time_s"]
                if procs["wall_time_s"] > 0
                else float("inf")
            ),
        },
        "identical_shards": True,
        "shm_clean": not leaked,
        "leaked_segments": leaked,
    }
