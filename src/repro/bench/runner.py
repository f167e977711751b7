"""Orchestration for ``repro bench``: run, persist, and gate on artifacts.

``run_bench`` executes the selected scenarios and writes one
``BENCH_<scenario>.json`` artifact each.  With ``check=True`` it then
applies each scenario's gates, all of them absolute — nothing is compared
with an earlier run:

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

__all__ = ["run_bench", "check_regression", "DEFAULT_RESULTS_DIR", "SCENARIOS"]

#: Where artifacts are written by default: next to the paper-figure
#: benchmark tables.
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

EXCHANGE_ARTIFACT = "BENCH_exchange.json"
TELEMETRY_ARTIFACT = "BENCH_telemetry.json"
ROBUSTNESS_ARTIFACT = "BENCH_robustness_rejoin.json"
BACKEND_ARTIFACT = "BENCH_backend.json"

#: Selectable benchmark scenarios (``repro bench --scenario``).
SCENARIOS = ("exchange", "telemetry", "robustness", "backend")

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
#: for a whole epoch again overflow the free lists and push it down (0.15 at
#: the full size; the smoke size's 40 frames all park, and there the windows
#: gate is the one that trips).
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

_SMOKE = {
    "exchange": dict(ranks=2, samples=48, shape=(32, 32), q=0.5, epochs=3),
    "q_sweep": dict(ranks=2, samples=48, shape=(32, 32), qs=(0.25, 0.5, 1.0), epochs=1),
    "telemetry": dict(ranks=2, samples=96, epochs=2, repeats=3),
    "robustness": dict(workers=3, samples=120, epochs=4, q=0.3),
    # 8 windows an epoch: enough frames for the per-frame round-trip gate
    # to see past the epoch's fixed collectives.
    "backend": dict(ranks=2, samples=256, shape=(32, 32), q=0.5, epochs=2),
}
_FULL = {
    "exchange": dict(ranks=4, samples=256, shape=(3, 32, 32), q=0.5, epochs=3),
    "q_sweep": dict(ranks=4, samples=256, shape=(3, 32, 32), qs=(0.1, 0.25, 0.5, 1.0), epochs=2),
    "telemetry": dict(ranks=4, samples=256, epochs=3, repeats=5),
    "robustness": dict(workers=4, samples=240, epochs=6, q=0.3),
    "backend": dict(ranks=4, samples=192, shape=(3, 32, 32), q=0.5, epochs=3),
}


def run_bench(
    *,
    smoke: bool = False,
    out_dir: str | Path | None = None,
    check: bool = False,
    seed: int = 0,
    scenarios: tuple = SCENARIOS,
) -> dict[str, Any]:
    """Run the selected benchmarks; returns their results plus ``"problems"``.

    Artifacts are written to ``out_dir`` (default: ``benchmarks/results``).
    With ``check=True`` the gates of :func:`check_regression` are applied
    to what was just measured and the violations are returned under
    ``"problems"`` (empty means the gate passes).
    ``scenarios`` selects which benchmarks run (default: all); skipped
    scenarios come back as ``None`` and their gates do not apply.
    """
    unknown = set(scenarios) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenario(s) {sorted(unknown)}; pick from {SCENARIOS}")
    out = Path(out_dir) if out_dir is not None else DEFAULT_RESULTS_DIR
    params = _SMOKE if smoke else _FULL
    out.mkdir(parents=True, exist_ok=True)
    exchange = telemetry = robustness = backend = None
    if "exchange" in scenarios:
        exchange = bench_exchange(seed=seed, **params["exchange"])
        exchange["q_sweep"] = exchange_q_sweep(seed=seed, **params["q_sweep"])
        exchange["schema"] = "repro.bench.exchange/v2"
        exchange["smoke"] = smoke
        (out / EXCHANGE_ARTIFACT).write_text(json.dumps(exchange, indent=2) + "\n")
    if "telemetry" in scenarios:
        telemetry = bench_telemetry(seed=seed, **params["telemetry"])
        telemetry["schema"] = "repro.bench.telemetry/v1"
        telemetry["smoke"] = smoke
        (out / TELEMETRY_ARTIFACT).write_text(json.dumps(telemetry, indent=2) + "\n")
    if "robustness" in scenarios:
        robustness = bench_robustness(seed=seed, **params["robustness"])
        robustness["schema"] = "repro.bench.robustness/v1"
        robustness["smoke"] = smoke
        (out / ROBUSTNESS_ARTIFACT).write_text(
            json.dumps(robustness, indent=2) + "\n"
        )
    if "backend" in scenarios:
        backend = bench_backend(seed=seed, **params["backend"])
        backend["schema"] = "repro.bench.backend/v2"
        backend["smoke"] = smoke
        (out / BACKEND_ARTIFACT).write_text(json.dumps(backend, indent=2) + "\n")

    problems: list[str] = []
    if check:
        problems = check_regression(
            exchange, telemetry=telemetry, robustness=robustness, backend=backend
        )
    return {
        "exchange": exchange,
        "telemetry": telemetry,
        "robustness": robustness,
        "backend": backend,
        "problems": problems,
        "out_dir": str(out),
    }


def check_regression(
    exchange: dict | None,
    *,
    telemetry: dict | None = None,
    robustness: dict | None = None,
    backend: dict | None = None,
) -> list[str]:
    """Hold a fresh run to the absolute gates in the module docstring.

    Returns a list of human-readable problems (empty = pass).  Every gate
    is a cap, a floor or a flag on the run itself, so a fresh checkout
    cannot silently grow a third copy on the exchange path, go back to
    frames that live for a whole epoch, or ship an always-on layer that got expensive.  A scenario
    passed as ``None`` was not run and its gates are skipped.
    """
    problems = []
    if exchange is not None:
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
    if telemetry is not None:
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
    if robustness is not None:
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
    if backend is not None:
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
