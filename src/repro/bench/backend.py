"""Threads-vs-procs backend comparison on the exchange hot path.

Runs the *same* exchange (same seed, same plan, same CRC/ACK protocol)
once under each communicator backend and compares wall time.  The threads
backend serialises compute-heavy sections behind the GIL; the ``procs``
backend runs ranks as real OS processes with shared-memory transport, so
on a multi-core machine the exchange should get faster.  On a single-core
machine (or an over-subscribed CI runner) process scheduling adds overhead
instead, so the report records ``cores`` / ``multicore`` and the speedup
gate only binds when ``multicore`` is true.

Correctness is gated unconditionally: both backends must produce
bit-identical post-exchange shards (order-independent per-rank content
checksums), and the shared-memory pool must end the run balanced with a
clean ``/dev/shm`` namespace.
"""

from __future__ import annotations

import os
from typing import Any

from repro.mpi.shm_pool import live_segments

from .exchange import _run_exchange

__all__ = ["bench_backend", "MIN_PROCS_SPEEDUP"]

#: Floor on the procs-over-threads exchange speedup, applied only when the
#: machine has >= 2 cores (``multicore`` in the artifact).  Kept modest:
#: the claim gated here is "real cores beat the GIL on the exchange", not
#: a specific scaling factor, and CI runners are noisy.
MIN_PROCS_SPEEDUP = 1.05


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
    run), and the core count that decides whether the speedup gate binds.
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
    cores = os.cpu_count() or 1
    return {
        "config": {
            "ranks": ranks, "samples": samples, "shape": list(shape),
            "q": q, "epochs": epochs, "seed": seed,
        },
        "cores": cores,
        # The speedup claim needs real parallelism to be measurable; the
        # regression gate consults this flag before applying the floor.
        "multicore": cores >= 2,
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
