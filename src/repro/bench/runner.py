"""Orchestration for ``repro bench``: run, persist, and gate on artifacts.

``run_bench`` executes the two scenarios at CI size, writes one
``BENCH_<scenario>.json`` artifact each, and then applies each scenario's
gates.  Every gate is a count or a ratio of counts held to an absolute cap,
floor or flag — nothing is compared with an earlier run, nothing is timed:

* exchange, on each backend — at most 2.1 bytes copied per sent byte, pool
  hit rate >= 0.5 after the first epoch, a rank's send frames out over at
  most ``WINDOWS_IN_FLIGHT_BOUND`` windows at once; across the two runs —
  ``procs`` shards identical to ``threads``, ``/dev/shm`` clean, at most 3
  pipe round trips per sent frame;
* robustness — crash-and-restart bit-identical to the clean run, shard
  capacity restored, Q-deficit repaid, ``migration_share`` <= 0.5.

Speed is the end-to-end benchmark's question (``benchmarks/perf``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.shuffle.scheduler import WINDOWS_IN_FLIGHT_BOUND

from .exchange import bench_exchange
from .robustness import bench_robustness

__all__ = ["run_bench", "check_regression", "ARTIFACTS"]

#: The artifact each scenario writes, in the order ``repro bench`` runs them.
ARTIFACTS = {
    "exchange": "BENCH_exchange.json",
    "robustness": "BENCH_robustness_rejoin.json",
}

#: Cap on bytes copied per logical sample byte sent.  Deterministic, not a
#: timing: a sample is gathered once into its frame and scattered once out
#: of it at install (the price of recycled frames and a physical storage
#: bound), so the ratio sits at about 2; a third copy anywhere on the path
#: pushes it to 3.
MAX_BYTES_COPIED_PER_SENT_BYTE = 2.1

#: Floor on the share of pool acquires served from a free list in the
#: epochs after the first.  A rank returns its few held frames at commit
#: and the next epoch's first windows take them back, so the steady rate is
#: 1 unless the ranks race each other for a parked frame; frames that live
#: for a whole epoch again overflow the free lists and push it down (0.15
#: at 4 ranks x 256 samples; the 40 frames of the size run here all park,
#: and there the windows gate is the one that trips).
MIN_STEADY_POOL_HIT_RATE = 0.5

#: Cap on pipe round trips per sent frame under ``procs``.  A count, not a
#: timing: a frame costs its ``pool.acquire`` plus its share of the epoch's
#: collectives and completion sweeps (about 1.7 here; only the number of
#: idle sweeps varies with how long a rank waits for its peers; 9.9 when
#: every world call was a round trip).  A post that waits for a reply or a
#: poll per pending receive coming back adds at least 1 each.
MAX_ROUND_TRIPS_PER_FRAME = 3.0

#: Cap on migrated-samples over total samples.  A single joiner owes its
#: ~1/M share back; moving more than half the dataset means the planner
#: is reshuffling instead of rebalancing.
MAX_MIGRATION_SHARE = 0.5

#: Problem sizes: seconds, not minutes, on a CI runner.
_SIZES = {
    "exchange": dict(ranks=2, samples=48, shape=(32, 32), q=0.5, epochs=3),
    "robustness": dict(workers=3, samples=120, classes=4, features=16, epochs=4, q=0.3),
}


def run_bench(*, out_dir: str | Path, seed: int = 0) -> dict[str, Any]:
    """Run the two benchmarks; returns their results plus ``"problems"``.

    Artifacts are written to ``out_dir``.  The gates of
    :func:`check_regression` are applied to what was just measured and the
    violations are returned under ``"problems"`` (empty means the gate
    passes).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exchange = bench_exchange(seed=seed, **_SIZES["exchange"])
    exchange["schema"] = "repro.bench.exchange/v3"
    robustness = bench_robustness(seed=seed, **_SIZES["robustness"])
    robustness["schema"] = "repro.bench.robustness/v2"
    result = {"exchange": exchange, "robustness": robustness}
    for name, artifact in ARTIFACTS.items():
        (out / artifact).write_text(json.dumps(result[name], indent=2) + "\n")
    result["problems"] = check_regression(**result)
    result["out_dir"] = str(out)
    return result


def check_regression(*, exchange: dict, robustness: dict) -> list[str]:
    """Hold a fresh run to the absolute gates in the module docstring.

    Returns a list of human-readable problems (empty = pass).  Every gate
    is a cap, a floor or a flag on the run itself, so a fresh checkout
    cannot silently grow a third copy on the exchange path, go back to
    frames that live for a whole epoch, or put a round trip back on a
    ``procs`` rank's send path.
    """
    problems = []
    for backend, run in exchange["modes"].items():
        copied = run["ratios"]["bytes_copied_per_sent_byte"]
        if copied > MAX_BYTES_COPIED_PER_SENT_BYTE:
            problems.append(
                f"exchange[{backend}]: {copied:.2f} bytes copied per sent byte, "
                f"above the {MAX_BYTES_COPIED_PER_SENT_BYTE:g} cap — the exchange "
                "path is copying more than its pack gather and install scatter"
            )
        hit_rate = run["ratios"]["pool_hit_rate"]
        if hit_rate < MIN_STEADY_POOL_HIT_RATE:
            problems.append(
                f"exchange[{backend}]: pool hit rate {hit_rate:.2f} after the "
                f"first epoch, below the {MIN_STEADY_POOL_HIT_RATE:g} floor — the "
                "frames returned at commit are not serving the next epoch"
            )
        windows = run["max_windows_in_flight"]
        if windows > WINDOWS_IN_FLIGHT_BOUND:
            problems.append(
                f"exchange[{backend}]: a rank had send frames of {windows} "
                f"windows out at once, above the bound of "
                f"{WINDOWS_IN_FLIGHT_BOUND} — frames are not coming back on "
                "ACK under compute"
            )
    if not exchange["identical_shards"]:
        problems.append(
            "exchange: procs-backend shards diverged from the threads "
            "reference — the shared-memory transport is not bit-faithful"
        )
    if not exchange["shm_clean"]:
        problems.append(
            f"exchange: leaked /dev/shm segments after the procs run: "
            f"{exchange['leaked_segments']}"
        )
    trips = exchange["ratios"]["round_trips_per_frame"]
    if trips > MAX_ROUND_TRIPS_PER_FRAME:
        problems.append(
            f"exchange: {trips:.2f} pipe round trips per sent frame, above "
            f"the {MAX_ROUND_TRIPS_PER_FRAME:g} cap — a per-frame round "
            "trip is back on the procs exchange path (see modes.procs.rpc)"
        )
    # Healing must be invisible and complete: determinism properties.
    if not robustness.get("bit_identical"):
        problems.append(
            "robustness: crashed-and-restarted lifecycle run is not "
            "bit-identical to the no-crash reference"
        )
    if not robustness.get("capacity_restored"):
        problems.append(
            "robustness: per-rank shard capacity did not return to the "
            "N/M target after the rejoin rebalance"
        )
    if robustness.get("q_deficit_final"):
        problems.append(
            f"robustness: exchange Q-deficit "
            f"{robustness['q_deficit_final']:g} still outstanding at "
            "run end — degraded epochs were never repaid"
        )
    share = robustness.get("ratios", {}).get("migration_share")
    if share is None:
        problems.append(
            "robustness: ratio 'migration_share' missing from current run"
        )
    elif share > MAX_MIGRATION_SHARE:
        problems.append(
            f"robustness: migration_share {share:.3g} above the "
            f"{MAX_MIGRATION_SHARE:g} cap — the planner reshuffled "
            "instead of repaying the joiner's share"
        )
    return problems
