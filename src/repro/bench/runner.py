"""Orchestration for ``repro bench``: run, persist, and gate on artifacts.

``run_bench`` executes the four scenarios at CI size, writes one
``BENCH_<scenario>.json`` artifact each, and then applies each scenario's
gates, all of them absolute — nothing is compared with an earlier run:

* exchange — at most 2.1 bytes copied per sent byte, pool hit rate >= 0.5
  after the first epoch, a rank's send frames out over at most
  ``WINDOWS_IN_FLIGHT_BOUND`` windows at once;
* telemetry — flight-recorder overhead inside its budget, training
  history bit-identical with the always-on layer enabled;
* robustness — crash-and-restart bit-identical to the clean run, shard
  capacity restored, Q-deficit repaid, ``rejoin_speed`` >= 5,
  ``migration_share`` <= 0.5;
* backend — ``procs`` shards identical to ``threads``, ``/dev/shm`` clean,
  at most 3 pipe round trips per sent frame.

Wall times are recorded but never gated: CI runners differ in speed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.shuffle.scheduler import WINDOWS_IN_FLIGHT_BOUND

from .backend import MAX_ROUND_TRIPS_PER_FRAME, bench_backend
from .exchange import bench_exchange, exchange_q_sweep
from .robustness import bench_robustness
from .telemetry import FLIGHT_OVERHEAD_BUDGET, bench_telemetry

__all__ = ["run_bench", "check_regression", "DEFAULT_RESULTS_DIR", "ARTIFACTS"]

#: Where artifacts are written by default: next to the paper-figure
#: benchmark tables.
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

#: The artifact each scenario writes, in the order ``repro bench`` runs them.
ARTIFACTS = {
    "exchange": "BENCH_exchange.json",
    "telemetry": "BENCH_telemetry.json",
    "robustness": "BENCH_robustness_rejoin.json",
    "backend": "BENCH_backend.json",
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

#: Floor on run-wall over rejoin-rebalance-wall.  An absolute gate, not a
#: ratio to an earlier run: the rebalance is milliseconds, so run-to-run
#: noise on its wall time swings the ratio far more than any real regression —
#: what must hold is the order-of-magnitude claim that healing is much
#: cheaper than the run it heals (a pathological rebalance that
#: re-exchanges everything drives this toward 1).
MIN_REJOIN_SPEED = 5.0

#: Cap on migrated-samples over total samples.  A single joiner owes its
#: ~1/M share back; moving more than half the dataset means the planner
#: is reshuffling instead of rebalancing.
MAX_MIGRATION_SHARE = 0.5

#: Problem sizes: seconds, not minutes, on a CI runner.
_SIZES = {
    "exchange": dict(ranks=2, samples=48, shape=(32, 32), q=0.5, epochs=3),
    "q_sweep": dict(ranks=2, samples=48, shape=(32, 32), qs=(0.25, 0.5, 1.0), epochs=1),
    "telemetry": dict(ranks=2, samples=96, epochs=2, repeats=3),
    "robustness": dict(workers=3, samples=120, epochs=4, q=0.3),
    # 8 windows an epoch: enough frames for the per-frame round-trip gate
    # to see past the epoch's fixed collectives.
    "backend": dict(ranks=2, samples=256, shape=(32, 32), q=0.5, epochs=2),
}


def run_bench(*, out_dir: str | Path | None = None, seed: int = 0) -> dict[str, Any]:
    """Run the four benchmarks; returns their results plus ``"problems"``.

    Artifacts are written to ``out_dir`` (default: ``benchmarks/results``).
    The gates of :func:`check_regression` are applied to what was just
    measured and the violations are returned under ``"problems"`` (empty
    means the gate passes).
    """
    out = Path(out_dir) if out_dir is not None else DEFAULT_RESULTS_DIR
    out.mkdir(parents=True, exist_ok=True)
    exchange = bench_exchange(seed=seed, **_SIZES["exchange"])
    exchange["q_sweep"] = exchange_q_sweep(seed=seed, **_SIZES["q_sweep"])
    exchange["schema"] = "repro.bench.exchange/v2"
    telemetry = bench_telemetry(seed=seed, **_SIZES["telemetry"])
    telemetry["schema"] = "repro.bench.telemetry/v1"
    robustness = bench_robustness(seed=seed, **_SIZES["robustness"])
    robustness["schema"] = "repro.bench.robustness/v1"
    backend = bench_backend(seed=seed, **_SIZES["backend"])
    backend["schema"] = "repro.bench.backend/v2"
    result = {
        "exchange": exchange,
        "telemetry": telemetry,
        "robustness": robustness,
        "backend": backend,
    }
    for name, artifact in ARTIFACTS.items():
        (out / artifact).write_text(json.dumps(result[name], indent=2) + "\n")
    result["problems"] = check_regression(**result)
    result["out_dir"] = str(out)
    return result


def check_regression(
    *, exchange: dict, telemetry: dict, robustness: dict, backend: dict
) -> list[str]:
    """Hold a fresh run to the absolute gates in the module docstring.

    Returns a list of human-readable problems (empty = pass).  Every gate
    is a cap, a floor or a flag on the run itself, so a fresh checkout
    cannot silently grow a third copy on the exchange path, go back to
    frames that live for a whole epoch, or ship an always-on layer that got
    expensive.
    """
    problems = []
    copied = exchange["ratios"]["bytes_copied_per_sent_byte"]
    if copied > MAX_BYTES_COPIED_PER_SENT_BYTE:
        problems.append(
            f"exchange: {copied:.2f} bytes copied per sent byte, above the "
            f"{MAX_BYTES_COPIED_PER_SENT_BYTE:g} cap — the exchange path "
            "is copying more than its pack gather and install scatter"
        )
    hit_rate = exchange["ratios"]["pool_hit_rate"]
    if hit_rate < MIN_STEADY_POOL_HIT_RATE:
        problems.append(
            f"exchange: pool hit rate {hit_rate:.2f} after the first epoch, "
            f"below the {MIN_STEADY_POOL_HIT_RATE:g} floor — the frames "
            "returned at commit are not serving the next epoch"
        )
    windows = exchange.get("exchange", {}).get("max_windows_in_flight", 0)
    if windows > WINDOWS_IN_FLIGHT_BOUND:
        problems.append(
            f"exchange: a rank had send frames of {windows} windows out at "
            f"once, above the bound of {WINDOWS_IN_FLIGHT_BOUND} — frames "
            "are not coming back on ACK under compute"
        )
    overhead = telemetry["ratios"]["flight_overhead"]
    budget = telemetry.get("budget", {}).get(
        "flight_overhead_max", FLIGHT_OVERHEAD_BUDGET
    )
    if overhead > budget:
        problems.append(
            f"telemetry: flight-recorder overhead {overhead:.3f}x exceeds "
            f"the {budget:.2f}x budget — always-on instrumentation got "
            "too expensive"
        )
    if not telemetry.get("identical_history"):
        problems.append(
            "telemetry: enabling the always-on layer changed the training "
            "result"
        )
    # Absolute gates: healing must be invisible and complete.  These
    # are determinism properties, not timings.
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
    speed = robustness.get("ratios", {}).get("rejoin_speed")
    if speed is None:
        problems.append(
            "robustness: ratio 'rejoin_speed' missing from current run"
        )
    elif speed < MIN_REJOIN_SPEED:
        problems.append(
            f"robustness: rejoin_speed {speed:.3g} below the "
            f"{MIN_REJOIN_SPEED:g}x floor — the rebalance is no longer "
            "much cheaper than the run it heals"
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
    if not backend.get("identical_shards"):
        problems.append(
            "backend: procs-backend shards diverged from the threads "
            "reference — the shared-memory transport is not bit-faithful"
        )
    if not backend.get("shm_clean", True):
        problems.append(
            f"backend: leaked /dev/shm segments after the procs run: "
            f"{backend.get('leaked_segments')}"
        )
    trips = backend["ratios"]["round_trips_per_frame"]
    if trips > MAX_ROUND_TRIPS_PER_FRAME:
        problems.append(
            f"backend: {trips:.2f} pipe round trips per sent frame, above "
            f"the {MAX_ROUND_TRIPS_PER_FRAME:g} cap — a per-frame round "
            "trip is back on the procs exchange path (see modes.procs.rpc)"
        )
    return problems
