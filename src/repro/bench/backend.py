"""Threads-vs-procs backend comparison on the exchange hot path.

Runs the *same* exchange (same seed, same plan, same CRC/ACK protocol)
once under each communicator backend.  What is gated is deterministic:
both backends must produce bit-identical post-exchange shards
(order-independent per-rank content checksums), and the shared-memory pool
must end the run balanced with a clean ``/dev/shm`` namespace, and a sent
frame may cost the ranks at most :data:`MAX_ROUND_TRIPS_PER_FRAME` pipe
round trips (counted by the brokers per wire name).  The wall
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

__all__ = ["bench_backend", "MAX_ROUND_TRIPS_PER_FRAME"]

#: Cap on pipe round trips per sent frame under ``procs``.  A count, not a
#: timing: a frame costs its ``pool.acquire`` plus its share of the epoch's
#: collectives and completion sweeps (about 1.6 here; only the number of
#: idle sweeps varies with how long a rank waits for its peers; 9.9 when
#: every world call was a round trip).  A post that waits for a reply or a
#: poll per pending receive coming back adds at least 1 each.
MAX_ROUND_TRIPS_PER_FRAME = 3.0


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
    # A clean exchange posts each frame once, and one ACK for it.
    frames = procs["messages_sent"] / 2
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
            "round_trips_per_frame": (
                sum(calls for rank in procs["rpc"] for calls, _casts in rank.values())
                / frames
            ),
        },
        "identical_shards": True,
        "shm_clean": not leaked,
        "leaked_segments": leaked,
    }
