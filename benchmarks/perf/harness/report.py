"""Drive the runs, print the metrics, store and compare result files."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .metrics import END_TO_END, PER_LAYER, REPEATS_EXACTLY, TIMING_UNITS

__all__ = ["run_one", "run_all", "compare_files", "environment"]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- environment
def environment(root: Path, fd_limit: int) -> dict[str, Any]:
    """What the numbers were measured on (stored with every result)."""
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they expose
        blas_desc = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc,
        # With one core both ranks time-share it: timings then measure the OS
        # scheduler, so they are reported as unresolved rather than as numbers.
        "timings_resolved": nproc >= 2,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads": {
            v: os.environ.get(v)
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "fd_limit": fd_limit,
        "commit": commit,
        "platform": platform.platform(),
    }


def _check_fd_budget(workload: Any, fd_limit: int) -> None:
    from .workloads import FDS_PER_EXCHANGE_PROCS_EPOCH

    if workload.name != "exchange_procs":
        return
    need = FDS_PER_EXCHANGE_PROCS_EPOCH * (1 + workload.steady_epochs) + 256
    if fd_limit < need:
        sys.exit(
            f"benchmark: exchange_procs needs {need} file descriptors per process "
            f"(two per shared segment the procs backend creates), limit is {fd_limit}"
        )


# ------------------------------------------------------------- one workload
def run_one(
    workload: Any, seed: int, seconds: float, trace: bool, out_dir: Path, fd_limit: int
) -> int:
    """The single-workload form: measure, check, print one JSON line last."""
    from .measure import SINGLE_SHOT_KINDS, WorkloadRun, end_to_end, per_layer, verdict

    env = environment(out_dir.parents[2], fd_limit)
    _check_fd_budget(workload, fd_limit)
    if not env["timings_resolved"]:
        _log(f"benchmark: only {env['nproc']} core: timings measure the scheduler")
    run = WorkloadRun(workload, seed, seconds, out_dir)
    if trace:
        run.run_untraced()
        for kind in SINGLE_SHOT_KINDS:
            run.run_kind(kind)
    else:
        # The whole budget goes to untraced passes; the threads-twin check of
        # a procs workload rides with the traced run (and the full run).
        while run.wants_untraced():
            run.run_untraced()
    v = verdict(run)
    for err in v["errors"]:
        _log(f"benchmark: {workload.name}: {err}")
    for name, ok in v["checks"].items():
        if not ok:
            _log(f"benchmark: {workload.name}: check failed: {name}")
    if not all(p["ok"] for p in run.all_passes()):
        # Without every pass there is no honest number to print.
        return 1
    metrics = per_layer(run, env["nproc"]) if trace else end_to_end(run)
    line = {
        "correct": v["correct"],
        "attempted": v["attempted"],
        "failed": v["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }
    _log(f"benchmark: {workload.name}: history_digest {v['history_digest']}")
    print(json.dumps(line), flush=True)
    return 0


# ------------------------------------------------------------ all workloads
def run_all(seed: int, seconds: float, out_dir: Path, fd_limit: int) -> int:
    """The full run: every workload, untraced passes interleaved across
    workloads, then the traced, reference and twin passes; prints every
    metric and writes ``out/result-seed<S>-<time>.json``."""
    from .measure import SINGLE_SHOT_KINDS, WorkloadRun, end_to_end, per_layer, verdict
    from .workloads import WORKLOADS

    env = environment(out_dir.parents[2], fd_limit)
    runs = {}
    for wl in WORKLOADS.values():
        _check_fd_budget(wl, fd_limit)
        runs[wl.name] = WorkloadRun(wl, seed, seconds, out_dir)
    # A B C D A B C D: slow drift of the machine lands on every workload
    # alike instead of on whichever ran last.
    while any(r.wants_untraced() for r in runs.values()):
        for name, r in runs.items():
            if r.wants_untraced():
                _log(f"benchmark: {name}: untraced pass {len(r.untraced) + 1}")
                r.run_untraced()
    for kind in SINGLE_SHOT_KINDS:
        for name, r in runs.items():
            if kind in r.specs:
                _log(f"benchmark: {name}: {kind} pass")
                r.run_kind(kind)
    env["loadavg_end"] = list(os.getloadavg())

    result: dict[str, Any] = {"env": env, "seed": seed, "seconds": seconds, "workloads": {}}
    all_ok = True
    for name, r in runs.items():
        v = verdict(r)
        complete = all(p["ok"] for p in r.all_passes())
        entry: dict[str, Any] = {"why": r.workload.why, **v}
        if complete:
            entry["end_to_end"] = end_to_end(r)
            entry["per_layer"] = per_layer(r, env["nproc"])
        result["workloads"][name] = entry
        all_ok = all_ok and complete and v["correct"]
    result["ratios"] = _ratios(result["workloads"])
    print_result(result)
    path = out_dir / f"result-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nresult file: {path}")
    return 0 if all_ok else 1


def _ratios(workloads: dict[str, Any]) -> dict[str, float]:
    """Cross-workload ratios later issues quote (ungated)."""

    def sps(name: str) -> float | None:
        e2e = workloads.get(name, {}).get("end_to_end")
        return e2e["samples_per_s"]["value"] if e2e else None

    out = {}
    for kind in ("compute", "exchange"):
        procs, threads = sps(f"{kind}_procs"), sps(f"{kind}_threads")
        if procs and threads:
            out[f"procs_speedup_{kind}"] = procs / threads
    return out


# ------------------------------------------------------------------ printing
def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.4g}"


def print_result(result: dict[str, Any]) -> None:
    """Every metric by name with its unit, per workload."""
    env = result["env"]
    resolved = env["timings_resolved"]
    print(f"# PLS training benchmark — seed {result['seed']}, commit {env['commit']}")
    print(
        f"# nproc {env['nproc']}, load {env['loadavg_start'][0]:.2f} -> "
        f"{env.get('loadavg_end', env['loadavg_start'])[0]:.2f}, python {env['python']}, "
        f"numpy {env['numpy']}, blas {env['blas']} (1 thread), fd limit {env['fd_limit']}"
    )
    if not resolved:
        print("# fewer than 2 cores: every timing metric is UNRESOLVED (it measures the scheduler)")

    def shown(metric: Any, value: float) -> str:
        if not resolved and metric.unit in TIMING_UNITS:
            return "unresolved"
        return _fmt(value)

    for name, w in result["workloads"].items():
        print(f"\n## {name} — {w['why']}")
        print(
            f"failed_ops / attempted_ops: {w['failed']} / {w['attempted']}   "
            f"correct: {w['correct']}   history_digest: {w['history_digest']}"
        )
        bad = [c for c, ok in w["checks"].items() if not ok]
        print(f"checks: {len(w['checks']) - len(bad)} passed" + (f", FAILED: {bad}" if bad else ""))
        for err in w["errors"]:
            print(f"error: {err}")
        if "end_to_end" not in w:
            continue
        print("end to end (untraced passes):")
        e2e = w["end_to_end"]
        for m in END_TO_END:
            e = e2e[m.name]
            extra = f"n={e['n']}"
            if m.name == "samples_per_s":
                extra += f" epochs, epoch p50 {_fmt(e['epoch_s_p50'])} s, "
                if e["tail_percentile"] > 50:
                    extra += f"p{e['tail_percentile']:g} {_fmt(e['epoch_s_tail'])} s"
                else:
                    extra += "no tail percentile has 10 samples beyond it"
                extra += f"; raw wall-clock {_fmt(e['raw'])} at host speed {e['host_speed']:.2f}"
            elif m.name == "setup_s":
                extra += f" passes, min {_fmt(e['min'])} s; raw wall-clock {_fmt(e['raw'])} s"
            else:
                extra += " passes"
            print(f"  {m.name:<42} {shown(m, e['value']):>12} {m.unit:<10} "
                  f"(bound {m.bound:.0%}; {extra})")
        print("per layer (traced pass; mean over ranks, max over ranks):")
        for m in PER_LAYER:
            e = w["per_layer"][m.name]
            extra = f"  p{e['percentile']:g}" if "percentile" in e else ""
            print(f"  {m.name:<42} {shown(m, e['value']):>12} {m.unit:<10} "
                  f"max {shown(m, e['max'])}{extra}")
    if result["ratios"]:
        print("\n## cross-workload ratios (ungated)")
        for name, value in result["ratios"].items():
            base = name.replace("procs_speedup_", "")
            print(f"  {name:<42} {_fmt(value):>12} ratio      "
                  f"(samples_per_s {base}_procs / {base}_threads)")


# ------------------------------------------------------------------- compare
def compare_files(path_a: str, path_b: str) -> int:
    """Print, per workload and end-to-end metric, both values, their relative
    difference and the bound; exit non-zero on any difference outside its
    bound or any difference at all in a metric that must repeat exactly."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    outside = 0
    print(f"A: {path_a} (seed {a['seed']}, commit {a['env']['commit']})")
    print(f"B: {path_b} (seed {b['seed']}, commit {b['env']['commit']})")
    print(f"{'workload':<18} {'metric':<32} {'A':>12} {'B':>12} {'B vs A':>9} {'bound':>6}  verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{name:<18} missing from one file: outside")
            outside += 1
            continue
        for m in END_TO_END:
            va, vb = wa["end_to_end"][m.name]["value"], wb["end_to_end"][m.name]["value"]
            rel = (vb - va) / va if va else 0.0
            ok = abs(rel) <= m.bound
            outside += not ok
            print(f"{name:<18} {m.name:<32} {_fmt(va):>12} {_fmt(vb):>12} {rel:>+9.1%} "
                  f"{m.bound:>6.0%}  {'within' if ok else 'outside'}")
        exact = [
            (key, wa["per_layer"][key]["value"], wb["per_layer"][key]["value"])
            for key in REPEATS_EXACTLY
        ]
        if a["seed"] == b["seed"]:
            exact.append(("history_digest", wa["history_digest"], wb["history_digest"]))
        for key, va, vb in exact:
            same = va == vb
            outside += not same
            print(f"{name:<18} {key:<32} {str(va):>12.12} {str(vb):>12.12} "
                  f"{'':>9} {'exact':>6}  {'within' if same else 'outside'}")
    print("all within bounds" if not outside else f"{outside} outside")
    return 1 if outside else 0
