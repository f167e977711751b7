"""Run a workload's passes, one fresh interpreter at a time, and turn what
they return into the benchmark's metrics and verdicts."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from . import hostspeed
from .metrics import PER_LAYER
from .onepass import planned_ops
from .summary import count_ops, mean, median, tail_percentile
from .workloads import N_SAMPLES, RANKS, PassSpec, Workload, pass_specs

__all__ = [
    "SINGLE_SHOT_KINDS", "WorkloadRun", "spawn_pass", "end_to_end", "per_layer", "verdict",
]

PERF_DIR = Path(__file__).resolve().parents[1]
#: A pass that has not finished by now is killed and reported as failed; the
#: whole command must stay inside the contract's 180 s.
PASS_TIMEOUT_S = 150.0
#: Layer spans that lie before the steady epochs: scaled by the host speed
#: over the set-up interval instead of over the steady one.
_SETUP_SPANS = ("train.epoch0_s", "train.broadcast_ms", "shuffle.setup_ms")
#: The passes run once per workload, after the untraced ones, in this order.
SINGLE_SHOT_KINDS = ("traced", "local", "single", "twin")
MIN_UNTRACED_PASSES = 2
MAX_UNTRACED_PASSES = 8


def spawn_pass(spec: PassSpec, out_dir: Path, index: int) -> dict[str, Any]:
    """Run ``spec`` in a child interpreter and load its result.

    The child is its own process group so a timeout can take its rank
    processes down with it; its stdout goes to our stderr, because the last
    line of *our* stdout is the benchmark's result.
    """
    stem = out_dir / f"pass-{spec.workload}-{spec.kind}-{index}"
    spec_path, result_path = f"{stem}.spec.json", f"{stem}.result.json"
    with open(spec_path, "w") as fh:
        json.dump(spec.to_json(), fh)
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--child-pass", spec_path, result_path]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    code = None
    try:
        with hostspeed.Sampler() as sampler:
            code = proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if code is None:  # timed out, or we are being interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result: dict[str, Any]
    if code == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    else:
        # No result file: the pass's planned operations still count as
        # attempted (and all failed).
        why = "timed out" if code is None else f"exited with code {code}"
        result = {
            "spec": spec.to_json(), "ok": False, "error": f"pass {why}",
            "ops": planned_ops(spec),
        }
    if result["ok"]:
        # Host speed per epoch (epoch 0 first) and over the set-up interval,
        # from the samples that fell between the marks rank 0 stamped.
        marks = result["epoch_marks"]
        result["epoch_speed"] = [
            hostspeed.speed_between(sampler.samples, a, b) for a, b in zip(marks, marks[1:])
        ]
        result["setup_speed"] = hostspeed.speed_between(
            sampler.samples, result["t_entry"], result["t_entry"] + result["setup_s"]
        )
        result["host_speed"] = hostspeed.speed_between(sampler.samples, marks[1], marks[-1])
    result["pass_wall_s"] = time.perf_counter() - started
    return result


class WorkloadRun:
    """The passes collected for one workload and the budget that sizes them."""

    def __init__(self, workload: Workload, seed: int, seconds: float, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.specs = pass_specs(workload, seed)
        self.untraced: list[dict[str, Any]] = []
        self.other: dict[str, dict[str, Any]] = {}
        self._measured_s = 0.0

    def wants_untraced(self) -> bool:
        """Whether another untraced pass fits the measuring budget.

        Passes have a fixed size (so peak memory and the warm-up share are
        the same in every run); the budget decides how many there are.  One
        more is started while it would end, on average, within ``seconds``
        plus half a pass.
        """
        n = len(self.untraced)
        if n < MIN_UNTRACED_PASSES:
            return True
        if n >= MAX_UNTRACED_PASSES or not all(p["ok"] for p in self.untraced):
            return False
        return self._measured_s + 0.5 * self._measured_s / n < self.seconds

    def run_untraced(self) -> None:
        result = spawn_pass(self.specs["untraced"], self.out_dir, len(self.untraced))
        self._measured_s += result["pass_wall_s"]
        self.untraced.append(result)

    def run_kind(self, kind: str) -> None:
        """Run one of the single-shot passes, if this workload has it."""
        if kind in self.specs:
            self.other[kind] = spawn_pass(self.specs[kind], self.out_dir, 0)

    def all_passes(self) -> list[dict[str, Any]]:
        return [*self.untraced, *self.other.values()]


# ------------------------------------------------------------------- metrics
def _epochs_at_nominal(p: dict[str, Any]) -> list[float]:
    """A pass's steady epochs at the reference host speed (see hostspeed):
    each epoch's wall-clock times the host speed sampled during it."""
    return [s * k for s, k in zip(p["steady_epoch_s"], p["epoch_speed"][1:])]


def _epoch_p50(p: dict[str, Any]) -> float:
    """Median steady epoch of one pass, at the reference speed."""
    return median(_epochs_at_nominal(p))


def end_to_end(run: WorkloadRun) -> dict[str, dict[str, Any]]:
    """The three gated metrics, from the untraced passes only."""
    good = [p for p in run.untraced if p["ok"]]
    epochs = sorted(s for p in good for s in _epochs_at_nominal(p))
    raw_epochs = [s for p in good for s in p["steady_epoch_s"]]
    pct, tail = tail_percentile(epochs)
    epoch_p50 = median(epochs)
    setups = [p["setup_s"] * p["setup_speed"] for p in good]
    return {
        "samples_per_s": {
            "value": N_SAMPLES / epoch_p50 if epoch_p50 else 0.0,
            "unit": "samples/s",
            "n": len(epochs),
            "epoch_s_p50": epoch_p50,
            "epoch_s_tail": tail,
            "tail_percentile": pct,
            "raw": N_SAMPLES / median(raw_epochs) if raw_epochs else 0.0,
            "host_speed": mean([p["host_speed"] for p in good]),
        },
        "setup_s": {
            "value": median(setups),
            "unit": "s",
            "n": len(good),
            "min": min(setups, default=0.0),
            "raw": median([p["setup_s"] for p in good]),
        },
        "peak_rss_mb": {
            "value": max((p["peak_rss_mb"] for p in good), default=0.0),
            "unit": "MiB",
            "n": len(good),
        },
    }


def per_layer(run: WorkloadRun, nproc: int) -> dict[str, dict[str, Any]]:
    """Every per-layer metric: the traced pass's spans and counters, plus the
    derived ones that need the untraced and reference passes."""
    traced = run.other["traced"]
    untraced = run.untraced[0]
    local, single = run.other["local"], run.other["single"]
    q = run.workload.q
    epochs = traced["spec"]["epochs"]
    stats = traced["stats"]
    rounds = [s.get("sent_samples", 0) for s in stats]
    sent_bytes = [s.get("sent_bytes", 0) for s in stats]
    retries = [
        s.get("resends", 0) + s.get("timeout_nacks", 0) + s.get("crc_rejects", 0)
        for s in stats
    ]
    pool = traced["world"]["pool"]
    # Every timing is reported at the reference host speed (see hostspeed):
    # epoch walls epoch by epoch, span-derived layer timings by the traced
    # pass's speed over its steady epochs (over its set-up for the set-up
    # spans).  Counts and ratios within one pass are as measured.
    untraced_p50, traced_p50 = _epoch_p50(untraced), _epoch_p50(traced)
    local_p50 = _epoch_p50(local)
    single_sps = N_SAMPLES / _epoch_p50(single)
    untraced_sps = N_SAMPLES / untraced_p50

    def scalar(value: float, biggest: float | None = None) -> dict[str, float]:
        return {"value": value, "max": value if biggest is None else biggest}

    units = {m.name: m.unit for m in PER_LAYER}
    out: dict[str, dict[str, Any]] = {}
    for name, entry in traced["layers"].items():
        k = 1.0
        if units[name] in ("s", "ms", "us"):
            k = traced["setup_speed"] if name in _SETUP_SPANS else traced["host_speed"]
        out[name] = {**entry, "value": entry["value"] * k, "max": entry["max"] * k}
    out.update(
        {
            "train.local_epoch_s": scalar(local_p50),
            "train.single_worker_samples_per_s": scalar(single_sps),
            "train.scaling_efficiency": scalar(untraced_sps / (RANKS * single_sps)),
            "shuffle.exposed_exchange_share": scalar(1.0 - local_p50 / untraced_p50),
            "shuffle.storage_peak_ratio": scalar(
                max(traced["peak_count"]) / ((1.0 + q) * N_SAMPLES / RANKS)
            ),
            "shuffle.storage_pinned_ratio": scalar(
                mean(traced["pinned_ratio"]), max(traced["pinned_ratio"])
            ),
            "shuffle.rounds_per_epoch": scalar(mean(rounds) / epochs),
            "shuffle.sent_bytes_per_epoch": scalar(mean(sent_bytes) / epochs),
            "shuffle.effective_q": scalar(
                mean([mean(s.get("effective_q", [])) for s in stats]) / q
            ),
            "shuffle.retry_share": scalar(sum(retries) / max(1, sum(rounds))),
            "mpi.launch_ms": scalar(
                1e3 * mean(traced["launch_s"]) * traced["setup_speed"],
                1e3 * max(traced["launch_s"]) * traced["setup_speed"],
            ),
            "mpi.teardown_ms": scalar(1e3 * traced["teardown_s"] * traced["host_speed"]),
            "mpi.pool_hit_rate": scalar(pool["hits"] / max(1, pool["acquires"])),
            "mpi.pool_alloc_ratio": scalar(
                pool["bytes_allocated"] / max(1, pool["bytes_served"])
            ),
            "mpi.bytes_copied_per_sent_byte": scalar(
                traced["world"]["bytes_copied"] / max(1, sum(sent_bytes))
            ),
            "proc.cpu_s_per_epoch": scalar(
                untraced["cpu_s"] * untraced["host_speed"] / untraced["spec"]["epochs"]
            ),
            "proc.cpu_utilisation": scalar(
                untraced["cpu_s"] / (untraced["wall_s"] * max(1, nproc))
            ),
            "proc.host_speed": scalar(traced["host_speed"]),
            "trace.overhead_ratio": scalar(untraced_p50 / traced_p50),
        }
    )
    return {m.name: {**out[m.name], "unit": units[m.name]} for m in PER_LAYER}


# ------------------------------------------------------------------ verdicts
def verdict(run: WorkloadRun) -> dict[str, Any]:
    """Correctness checks across the workload's passes, and its operations.

    Beyond what each pass checks on its own: passes of one seed must agree
    bit for bit (same ``(seed, epoch)``, same history and shards), and a
    ``procs`` workload must match its ``threads`` twin — per-epoch losses,
    history digest and order-independent shard checksums.
    """
    passes = run.all_passes()
    checks: dict[str, bool] = {"all_passes_ran": all(p["ok"] for p in passes)}
    good = [p for p in passes if p["ok"]]
    for p in good:
        for name, ok in p["checks"].items():
            checks[name] = checks.get(name, True) and ok
    same_config = [p for p in good if p["spec"]["kind"] in ("untraced", "traced", "twin")]
    if same_config:
        ref = same_config[0]
        checks["passes_bit_identical"] = all(
            p["history_digest"] == ref["history_digest"]
            and p["shard_checksums"] == ref["shard_checksums"]
            for p in same_config
        )
    twin = run.other.get("twin")
    if twin is not None:
        mine = next((p for p in good if p["spec"]["kind"] in ("untraced", "traced")), None)
        checks["matches_threads_twin"] = bool(
            mine
            and twin["ok"]
            and twin["losses"] == mine["losses"]
            and twin["shard_checksums"] == mine["shard_checksums"]
        )
    ok = all(checks.values())
    attempted, failed = count_ops(passes, checks_ok=ok)
    digests = {p["history_digest"] for p in same_config}
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "history_digest": digests.pop() if len(digests) == 1 else "diverged",
        "errors": [p["error"] for p in passes if not p["ok"]],
    }
