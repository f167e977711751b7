"""Orchestration for ``repro bench``: run, persist, and gate on artifacts.

``run_bench`` executes the selected scenarios and writes one
``BENCH_<scenario>.json`` artifact each.  With ``check=True`` it first
loads the committed baselines and then applies each scenario's gates:
absolute floors and caps on deterministic or self-normalised quantities
(bytes copied per sent byte, pool hit rate, flight-recorder overhead, Jain
fairness, bit-identity flags), plus a >20 % drop check against the baseline
for the ratios that are comparable across machines.  Wall times are recorded but
never gated: CI runners differ in speed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .backend import bench_backend
from .exchange import bench_exchange, exchange_q_sweep
from .robustness import bench_robustness
from .serve import bench_serve
from .telemetry import FLIGHT_OVERHEAD_BUDGET, bench_telemetry

__all__ = ["run_bench", "check_regression", "DEFAULT_RESULTS_DIR", "SCENARIOS"]

#: Where artifacts are read from and written to by default: the committed
#: baselines live next to the paper-figure benchmark tables.
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

EXCHANGE_ARTIFACT = "BENCH_exchange.json"
TELEMETRY_ARTIFACT = "BENCH_telemetry.json"
SERVE_ARTIFACT = "BENCH_serve.json"
ROBUSTNESS_ARTIFACT = "BENCH_robustness_rejoin.json"
BACKEND_ARTIFACT = "BENCH_backend.json"

#: Selectable benchmark scenarios (``repro bench --scenario``).
SCENARIOS = ("exchange", "telemetry", "serve", "robustness", "backend")

#: Cap on bytes copied per logical sample byte sent.  Deterministic, not a
#: timing: a sample is gathered once into its frame and scattered once out
#: of it at install (the price of recycled frames and a physical storage
#: bound), so the ratio sits at about 2; a third copy anywhere on the path
#: pushes it to 3.
MAX_BYTES_COPIED_PER_SENT_BYTE = 2.1

#: Floor on the grant-order Jain index for symmetric tenants: equal-weight
#: backlogged tenants must share service near-evenly in every prefix.
MIN_SERVE_FAIRNESS = 0.9

#: Floor on run-wall over rejoin-rebalance-wall.  An absolute gate, not a
#: baseline ratio: the rebalance is milliseconds, so run-to-run noise on
#: its wall time swings the ratio far more than any real regression —
#: what must hold is the order-of-magnitude claim that healing is much
#: cheaper than the run it heals (a pathological rebalance that
#: re-exchanges everything drives this toward 1).
MIN_REJOIN_SPEED = 5.0

#: Cap on migrated-samples over total samples.  A single joiner owes its
#: ~1/M share back; moving more than half the dataset means the planner
#: is reshuffling instead of rebalancing.
MAX_MIGRATION_SHARE = 0.5

_SMOKE = {
    "exchange": dict(ranks=2, samples=48, shape=(32, 32), q=0.5, epochs=2),
    "q_sweep": dict(ranks=2, samples=48, shape=(32, 32), qs=(0.25, 0.5, 1.0), epochs=1),
    "telemetry": dict(ranks=2, samples=96, epochs=2, repeats=3),
    "serve": dict(tenants=2, samples=96, shape=(3, 8, 8), requests=8, batch=6, workers=2),
    "robustness": dict(workers=3, samples=120, epochs=4, q=0.3),
    "backend": dict(ranks=2, samples=64, shape=(32, 32), q=0.5, epochs=2),
}
_FULL = {
    "exchange": dict(ranks=4, samples=256, shape=(3, 32, 32), q=0.5, epochs=3),
    "q_sweep": dict(ranks=4, samples=256, shape=(3, 32, 32), qs=(0.1, 0.25, 0.5, 1.0), epochs=2),
    "telemetry": dict(ranks=4, samples=256, epochs=3, repeats=5),
    "serve": dict(tenants=4, samples=512, shape=(3, 16, 16), requests=32, batch=8, workers=3),
    "robustness": dict(workers=4, samples=240, epochs=6, q=0.3),
    "backend": dict(ranks=4, samples=192, shape=(3, 32, 32), q=0.5, epochs=3),
}


def run_bench(
    *,
    smoke: bool = False,
    out_dir: str | Path | None = None,
    check: bool = False,
    baseline_dir: str | Path | None = None,
    seed: int = 0,
    scenarios: tuple = SCENARIOS,
) -> dict[str, Any]:
    """Run the selected benchmarks; returns their results plus ``"problems"``.

    Artifacts are written to ``out_dir`` (default: ``benchmarks/results``).
    With ``check=True`` the baselines are loaded from ``baseline_dir``
    *before* anything is overwritten, and detected regressions are
    returned under ``"problems"`` (empty means the gate passes).
    ``scenarios`` selects which benchmarks run (default: all); skipped
    scenarios come back as ``None`` and their gates do not apply.
    """
    unknown = set(scenarios) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenario(s) {sorted(unknown)}; pick from {SCENARIOS}")
    out = Path(out_dir) if out_dir is not None else DEFAULT_RESULTS_DIR
    base = Path(baseline_dir) if baseline_dir is not None else DEFAULT_RESULTS_DIR
    baselines: dict[str, Any] = {}
    if check:
        for name in (
            EXCHANGE_ARTIFACT, TELEMETRY_ARTIFACT,
            SERVE_ARTIFACT, ROBUSTNESS_ARTIFACT,
        ):
            path = base / name
            if path.is_file():
                baselines[name] = json.loads(path.read_text())

    params = _SMOKE if smoke else _FULL
    out.mkdir(parents=True, exist_ok=True)
    exchange = telemetry = serve = robustness = backend = None
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
    if "serve" in scenarios:
        serve = bench_serve(seed=seed, **params["serve"])
        serve["schema"] = "repro.bench.serve/v1"
        serve["smoke"] = smoke
        (out / SERVE_ARTIFACT).write_text(json.dumps(serve, indent=2) + "\n")
    if "robustness" in scenarios:
        robustness = bench_robustness(seed=seed, **params["robustness"])
        robustness["schema"] = "repro.bench.robustness/v1"
        robustness["smoke"] = smoke
        (out / ROBUSTNESS_ARTIFACT).write_text(
            json.dumps(robustness, indent=2) + "\n"
        )
    if "backend" in scenarios:
        backend = bench_backend(seed=seed, **params["backend"])
        backend["schema"] = "repro.bench.backend/v1"
        backend["smoke"] = smoke
        (out / BACKEND_ARTIFACT).write_text(json.dumps(backend, indent=2) + "\n")

    problems: list[str] = []
    if check:
        problems = check_regression(
            exchange, baselines, telemetry=telemetry, serve=serve,
            robustness=robustness, backend=backend,
        )
    return {
        "exchange": exchange,
        "telemetry": telemetry,
        "serve": serve,
        "robustness": robustness,
        "backend": backend,
        "problems": problems,
        "out_dir": str(out),
    }


def _ratio_regressions(
    label: str, current: dict, baseline: dict | None, keys: tuple, tolerance: float
) -> list[str]:
    problems = []
    for key in keys:
        cur = current.get("ratios", {}).get(key)
        if cur is None:
            problems.append(f"{label}: ratio {key!r} missing from current run")
            continue
        if baseline is None:
            continue
        ref = baseline.get("ratios", {}).get(key)
        if ref is None or ref == float("inf"):
            continue
        if cur < (1.0 - tolerance) * ref:
            problems.append(
                f"{label}: {key} regressed to {cur:.3g} "
                f"(< {1 - tolerance:.0%} of baseline {ref:.3g})"
            )
    return problems


def check_regression(
    exchange: dict | None,
    baselines: dict[str, Any],
    *,
    telemetry: dict | None = None,
    serve: dict | None = None,
    robustness: dict | None = None,
    backend: dict | None = None,
    tolerance: float = 0.2,
) -> list[str]:
    """Compare a fresh run against the committed baselines.

    Returns a list of human-readable problems (empty = pass).  A missing
    baseline file is not a failure — the absolute gates still apply (the
    copy cap and the pool-hit floor for the exchange, the flight-overhead
    budget for telemetry), so a fresh checkout cannot silently grow a third
    copy on the exchange path, stop recycling frames, or ship an always-on
    layer that got expensive.  A scenario passed as
    ``None`` was not run and its gates are skipped.
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
        if exchange["ratios"]["pool_hit_rate"] <= 0.0:
            problems.append(
                "exchange: pool hit rate is zero — frames released at commit "
                "are not being recycled"
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
    if serve is not None:
        fairness = serve["ratios"]["fairness_jain"]
        if fairness < MIN_SERVE_FAIRNESS:
            problems.append(
                f"serve: grant-order Jain index {fairness:.3f} below the "
                f"{MIN_SERVE_FAIRNESS} floor — symmetric tenants are not "
                "being served fairly"
            )
        if serve["ratios"]["hot_hit_rate"] <= 0.0:
            problems.append(
                "serve: hot-cache hit rate is zero on the overlapping-dataset "
                "scenario — cross-tenant sharing is broken"
            )
        faults = serve["faults"]
        if faults["errors"] or faults["served"] < faults["submitted"]:
            problems.append(
                f"serve: {faults['errors']} request(s) failed under injected "
                f"flaky reads ({faults['served']}/{faults['submitted']} "
                "served) — the retry discipline is not absorbing faults"
            )
        problems += _ratio_regressions(
            "serve",
            serve,
            baselines.get(SERVE_ARTIFACT),
            ("fairness_jain", "hot_hit_rate"),
            tolerance,
        )
    if robustness is not None:
        # Absolute gates: healing must be invisible and complete.  These
        # are determinism properties, not timings, so no baseline needed.
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
    return problems
