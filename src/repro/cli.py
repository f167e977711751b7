"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``train``
    Run a shuffling-strategy comparison on a synthetic dataset and print
    the accuracy table (the Figure 5/6 primitive).
``trace``
    Summarize a flight dump (``chaos-train --flight-dir``) or a Chrome
    trace (``train --trace``): per-phase totals, per-rank byte counts, top
    spans and an ASCII Gantt timeline.
``chaos-train``
    Supervised PLS training under a deterministic fault profile
    (``--chaos "corrupt:p=0.01;flaky-read:p=0.05;kill:rank=1,epoch=1;..."``),
    the one failure-aware command: message corruption/drops/delays/
    duplicates, flaky or torn storage reads and per-rank slowdown are
    absorbed by the checksummed exchange, retrying I/O and (with
    ``--exchange-deadline``) degraded-Q machinery; ``kill:`` clauses
    fail-stop a rank (shrink + shard recovery), ``rejoin:`` re-admits it
    with a deterministic shard rebalance, ``crash:`` kills the whole job,
    which restarts from the latest complete snapshot (``--snapshot-dir``;
    a directory that already holds one is resumed).  Exits 1 unless the
    run ends with the expected workers at their ``N/M`` share;
    ``--compare-clean`` also asserts the final accuracy matches an
    un-faulted run (default tolerance 0: bit-identical weights).
``lint``
    SPMD correctness lint (rules SPMD001-SPMD009, the latter four
    interprocedural-dataflow) over python sources; exits nonzero on
    findings.  ``--format github`` for Actions inline annotations.
``verify-protocol``
    Explicit-state model check of the reliable-exchange round protocol
    (send → verify → ACK/NACK → resend → commit/rollback composed with
    buffer-pool ownership) under message drop/dup/delay/stale/corruption
    and rank kills; also re-checks seeded protocol mutations and fails if
    any survives undetected.
``health``
    Lifecycle timeline of a flight dump (``chaos-train --flight-dir``), or
    anomaly/straggler report over a telemetry snapshot: read a JSON file
    written by a previous run (``repro health telemetry.json``) or run a
    small demo job live (``--run``, optionally with one artificially
    slowed rank via ``--slow-rank/--slow-factor``) and print the per-rank
    summary plus named findings.  ``--strict`` exits 1 when anything is
    flagged.

Subcommands register in ``_HANDLERS`` (one handler function per command);
``main`` dispatches through that mapping.  No subcommand prints a paper
table: each table has one producer, its ``benchmarks/bench_*.py`` figure
script (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.utils import format_size, print_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests)."""
    from repro.data.partition import PARTITION_SCHEMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Why Globally Re-shuffle?' (IPDPS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_arg(p) -> None:
        # Shared by every subcommand that launches an SPMD world.  Default
        # None defers to the REPRO_BACKEND environment variable (and then
        # to "threads") inside run_spmd.
        p.add_argument(
            "--backend", choices=["threads", "procs"], default=None,
            help="communicator backend hosting the ranks: 'threads' "
            "(in-process, default) or 'procs' (forked processes with "
            "shared-memory transport: real SIGKILL, per-process RSS; not "
            "faster); default: $REPRO_BACKEND or 'threads'",
        )

    p_train = sub.add_parser("train", help="compare shuffling strategies on synthetic data")
    p_train.add_argument("--samples", type=int, default=1024)
    p_train.add_argument("--classes", type=int, default=8)
    p_train.add_argument("--features", type=int, default=32)
    p_train.add_argument("--workers", type=int, default=8)
    p_train.add_argument("--epochs", type=int, default=8)
    p_train.add_argument("--batch-size", type=int, default=8)
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument(
        "--partition", choices=PARTITION_SCHEMES, default="class_sorted",
    )
    p_train.add_argument("--norm", choices=["batch", "group"], default="batch")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--strategies", nargs="+", default=["global", "local", "partial-0.3"],
        help="global | local | partial-<q>",
    )
    p_train.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record per-rank spans and write a Chrome trace-event JSON "
        "(one pid per rank; with several strategies, one file per strategy "
        "suffixed -<strategy>)",
    )
    add_backend_arg(p_train)

    p_trace = sub.add_parser(
        "trace", help="summarize a trace file (flight dump or Chrome JSON)"
    )
    p_trace.add_argument(
        "file", help="flight dump (chaos-train --flight-dir) or Chrome JSON "
        "(train --trace)",
    )

    p_ch = sub.add_parser(
        "chaos-train",
        help="supervised PLS training under a deterministic fault profile: "
        "transient faults, rank kills and rejoins, whole-job crash/restart",
    )
    p_ch.add_argument("--samples", type=int, default=512)
    p_ch.add_argument("--classes", type=int, default=4)
    p_ch.add_argument("--features", type=int, default=32)
    p_ch.add_argument("--workers", type=int, default=4)
    p_ch.add_argument("--epochs", type=int, default=5)
    p_ch.add_argument("--batch-size", type=int, default=8)
    p_ch.add_argument("--lr", type=float, default=0.05)
    p_ch.add_argument("--q", type=float, default=0.3, help="exchange fraction Q")
    p_ch.add_argument(
        "--partition", choices=PARTITION_SCHEMES, default="class_sorted",
    )
    p_ch.add_argument("--seed", type=int, default=0, help="training seed")
    p_ch.add_argument(
        "--chaos", default="", metavar="SPEC",
        help="fault profile: ';'-separated clauses, e.g. "
        "'corrupt:p=0.01;drop:p=0.01;flaky-read:p=0.05;slow:rank=3,x=10;"
        "kill:rank=1,epoch=1,point=mid_exchange;rejoin:rank=1,epoch=3;"
        "crash:epoch=2'",
    )
    p_ch.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the injection schedule (independent of --seed)",
    )
    p_ch.add_argument(
        "--exchange-deadline", type=float, default=None, metavar="SECONDS",
        help="per-epoch exchange deadline; past it the exchange commits the "
        "verified prefix (degraded Q) and repays the deficit next epoch",
    )
    p_ch.add_argument(
        "--resend-timeout", type=float, default=0.25, metavar="SECONDS",
        help="initial NACK timeout of the checksummed exchange",
    )
    p_ch.add_argument(
        "--compare-clean", action="store_true",
        help="also run without faults (same seeds, same data substrate) and "
        "report the accuracy delta; exits 1 if it exceeds --tolerance",
    )
    p_ch.add_argument(
        "--tolerance", type=float, default=0.0,
        help="max |acc(chaos) - acc(clean)| allowed with --compare-clean "
        "(default 0: recoverable faults must be bit-invisible)",
    )
    p_ch.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="write a full-job snapshot into DIR after every epoch; a DIR "
        "that already holds a complete snapshot is resumed from it "
        "(default: no snapshots, or a temporary directory when the "
        "profile has a crash: clause)",
    )
    p_ch.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="write flight-recorder dumps (fault and lifecycle-transition "
        "post-mortems plus the final 'lifecycle complete' timeline) as "
        "JSON files into DIR — readable by 'repro health <file>'",
    )
    add_backend_arg(p_ch)

    p_bench = sub.add_parser(
        "bench",
        help="subsystem benchmark gate: runs the exchange scenario on the "
        "threads and procs backends and the robustness scenario at CI size, "
        "writes BENCH_exchange.json and BENCH_robustness_rejoin.json, and "
        "fails unless every gate holds, each a count or a ratio of counts: "
        "<= 2.1 bytes copied per sent byte, pool hit rate >= 0.5 after the "
        "first epoch and a rank's frames out over <= 5 windows on each "
        "backend; identical shards, /dev/shm clean, <= 3 pipe round trips "
        "per sent frame; a bit-identical healed run, capacity restored, "
        "Q-deficit repaid, migration_share <= 0.5",
    )
    p_bench.add_argument(
        "--out", required=True, metavar="DIR", help="artifact directory",
    )
    p_bench.add_argument("--seed", type=int, default=0, help="benchmark seed")

    p_health = sub.add_parser(
        "health",
        help="lifecycle timeline of a flight dump, or straggler/anomaly "
        "report over a telemetry snapshot",
    )
    p_health.add_argument(
        "file", nargs="?", default=None,
        help="flight dump (chaos-train --flight-dir) or telemetry JSON "
        "snapshot (written by --run --out)",
    )
    p_health.add_argument(
        "--run", action="store_true",
        help="run a small live demo job and report on its telemetry",
    )
    p_health.add_argument("--workers", type=int, default=4)
    p_health.add_argument("--samples", type=int, default=256)
    p_health.add_argument("--epochs", type=int, default=3)
    p_health.add_argument("--q", type=float, default=0.3)
    p_health.add_argument("--seed", type=int, default=0)
    p_health.add_argument(
        "--slow-rank", type=int, default=None, metavar="RANK",
        help="with --run: artificially slow this rank's message sends",
    )
    p_health.add_argument(
        "--slow-factor", type=float, default=10.0, metavar="X",
        help="slowdown multiplier of --slow-rank (default 10)",
    )
    p_health.add_argument(
        "--out", default=None, metavar="PATH",
        help="with --run: also write the telemetry JSON snapshot here",
    )
    p_health.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="also export the snapshot as OpenMetrics text",
    )
    p_health.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any finding is raised",
    )

    p_lint = sub.add_parser(
        "lint", help="SPMD correctness lint (AST rules SPMD001-SPMD009)"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "github"], default="text",
        help="report format (github = Actions ::error annotations)",
    )

    sub.add_parser(
        "verify-protocol",
        help="model-check the reliable-exchange protocol (and its mutants)",
    )

    return parser


def _cmd_train(args) -> int:
    from repro.data import SyntheticSpec
    from repro.train import TrainConfig, run_comparison

    spec = SyntheticSpec(
        n_samples=args.samples, n_classes=args.classes, n_features=args.features,
        seed=args.seed,
    )
    config = TrainConfig(
        model="mlp", epochs=args.epochs, batch_size=args.batch_size,
        base_lr=args.lr, partition=args.partition, seed=args.seed,
        norm=args.norm,
    )
    result = run_comparison(
        spec=spec, config=config, workers=args.workers, strategies=args.strategies,
        tracing=args.trace is not None, backend=args.backend,
    )
    if args.trace is not None:
        from pathlib import Path

        from repro.obs import merge_ranks, write_chrome_trace

        base = Path(args.trace)
        for sname, flight in result.flight.items():
            # One pid per rank inside a file; one file per strategy so pids
            # stay unambiguous when several strategies were compared.
            if len(result.flight) == 1:
                path = base
            else:
                path = base.with_name(f"{base.stem}-{sname}{base.suffix or '.json'}")
            write_chrome_trace(merge_ranks(flight), path)
            print(f"wrote trace: {path}", file=sys.stderr)
    rows = [
        [name, f"{h.best_accuracy:.3f}", f"{h.final_accuracy:.3f}",
         h.stats.get("storage_samples", "-")]
        for name, h in result.histories.items()
    ]
    print_table(
        ["strategy", "best top-1", "final top-1", "storage (samples)"],
        rows,
        title=(
            f"{args.workers} workers, partition={args.partition}, "
            f"norm={args.norm}, {args.epochs} epochs"
        ),
    )
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from repro.obs import render_summary, summarize_trace

    path = Path(args.file)
    if not path.is_file():
        print(f"no trace file at {path}", file=sys.stderr)
        return 1
    try:
        summary = summarize_trace(path)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        print(f"{path} is not a trace file (flight dump or Chrome JSON): {exc}",
              file=sys.stderr)
        return 1
    if not summary.n_events:
        print(f"{path} holds no events", file=sys.stderr)
        return 1
    print(render_summary(summary))
    return 0


def _cmd_chaos_train(args) -> int:
    import os

    import numpy as np

    from repro.data import SyntheticSpec
    from repro.faults import FaultProfile, run_chaos_train
    from repro.obs.telemetry import FLIGHT_DIR_ENV
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    try:
        profile = FaultProfile.parse(args.chaos)
        profile.lifecycle_plan()  # rejoin-without-kill, crash at epoch 0, ...
    except ValueError as exc:
        print(f"bad --chaos spec: {exc}", file=sys.stderr)
        return 2
    spec = SyntheticSpec(
        n_samples=args.samples, n_classes=args.classes,
        n_features=args.features, seed=args.seed,
    )
    config = TrainConfig(
        model="mlp", in_shape=(args.features,), num_classes=args.classes,
        epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr,
        partition=args.partition, seed=args.seed,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    common = dict(
        config=config, workers=args.workers, q=args.q,
        exchange_deadline_s=args.exchange_deadline,
        resend_timeout_s=args.resend_timeout,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        backend=args.backend,
    )
    if args.flight_dir:
        # The world creates its FlightLog from this environment seam; every
        # dump taken during the run (fault post-mortems, lifecycle
        # transitions, the supervisor's final timeline) lands there.
        os.environ[FLIGHT_DIR_ENV] = args.flight_dir
    result = run_chaos_train(
        profile=profile, seed=args.chaos_seed,
        snapshot_dir=args.snapshot_dir, **common,
    )
    run = result.lifecycle

    injected = result.injected or {"(none)": 0}
    print_table(
        ["fault", "injected"],
        [[k, v] for k, v in sorted(injected.items())],
        title=f"chaos profile: {args.chaos or '(clean)'}",
    )
    fs = result.fault_stats
    if fs:
        eq = fs.get("effective_q", [])
        print(
            f"recovery: {fs.get('resends', 0)} resends "
            f"({format_size(fs.get('resent_bytes', 0))}), "
            f"{fs.get('crc_rejects', 0)} crc rejects, "
            f"{fs.get('timeout_nacks', 0)} timeout nacks, "
            f"{fs.get('stale_discards', 0)} stale discards"
        )
        print(
            f"degraded epochs: {fs.get('degraded_epochs', 0)}, "
            f"final q deficit: {run.q_deficit:g}, "
            f"effective Q: [{', '.join(f'{x:.2f}' for x in eq)}]"
        )
    rs = result.retry_stats
    if rs.get("retries") or rs.get("giveups"):
        print(f"storage reads: {rs.get('retries', 0)} retried, "
              f"{rs.get('giveups', 0)} gave up")
    for r in run.recoveries:
        print(
            f"rank {r['dead_ranks']} died at epoch {r['epoch']}: recovered "
            f"{r['lost_gids']} samples ({r['from_replica']} replica, "
            f"{r['from_source']} source)"
        )
    for r in run.rejoins:
        print(
            f"rejoin at epoch {r['epoch']}: ranks {r['joiners']} re-admitted, "
            f"{r['moved_gids']} samples migrated back "
            f"({format_size(r['bytes_transferred'])}, {r['promoted']} promoted "
            f"from cold replicas)"
        )
    print(
        f"chaos run: {args.workers} -> {run.final_workers} workers "
        f"{list(run.final_group)}, {run.segments} segment(s), "
        f"{run.restarts} restart(s), capacity_ok={run.capacity_ok}, "
        f"final top-1 {result.final_accuracy:.3f}"
    )
    # A Q-deficit still owed is reported, not failed: it is what a run whose
    # last epochs degraded under --exchange-deadline legitimately ends with.
    if not run.capacity_ok or run.final_workers != args.workers - len(run.dead_ranks):
        print("end-state verification failed", file=sys.stderr)
        return 1
    if not args.compare_clean:
        return 0

    # Same training seed, zero injections, no snapshots to resume from, and
    # — when the profile touched storage — the same on-disk substrate
    # (folder layout reorders samples by class, so only a materialized
    # baseline sees the same partition).  No flight dumps either: dump
    # names restart at 001 in every world, so the baseline's timeline
    # would overwrite the run's.
    os.environ.pop(FLIGHT_DIR_ENV, None)
    clean = run_chaos_train(
        profile="", seed=args.chaos_seed,
        materialize=profile.has_storage_faults, **common,
    )
    mine, ref = run.model_state, clean.lifecycle.model_state
    identical = set(mine) == set(ref) and all(
        np.array_equal(mine[k], ref[k]) for k in mine
    )
    delta = abs(result.final_accuracy - clean.final_accuracy)
    print(
        f"clean run final top-1 {clean.final_accuracy:.3f} "
        f"(|delta| = {delta:.6f}, tolerance {args.tolerance:.6f}, "
        f"weights bit-identical: {identical})"
    )
    if delta > args.tolerance or (args.tolerance == 0 and not identical):
        print("run under chaos diverged from the clean run", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import ARTIFACTS, run_bench

    result = run_bench(out_dir=args.out, seed=args.seed)
    ex, rob = result["exchange"], result["robustness"]
    print(f"wrote {', '.join(ARTIFACTS.values())} to {result['out_dir']}")
    for backend, run in ex["modes"].items():
        pool = run["pool"]
        print(
            f"exchange [{backend}]: "
            f"{run['ratios']['bytes_copied_per_sent_byte']:.3f} bytes copied "
            f"per sent byte, pool {pool['hits']}/{pool['acquires']} hits, "
            f"{pool['high_water']} frames at most, "
            f"{run['max_windows_in_flight']} windows of a rank's frames out at most"
        )
    print(
        f"exchange: {ex['ratios']['round_trips_per_frame']:.2f} pipe round "
        f"trips per sent frame under procs; shards identical="
        f"{ex['identical_shards']}, /dev/shm clean={ex['shm_clean']}"
    )
    print(
        f"robustness: {rob['ratios']['migration_share']:.0%} of samples "
        f"migrated; bit-identical={rob['bit_identical']}, capacity "
        f"restored={rob['capacity_restored']}, Q-deficit={rob['q_deficit_final']:g}"
    )
    if result["problems"]:
        for p in result["problems"]:
            print(f"REGRESSION: {p}", file=sys.stderr)
        return 1
    print("bench check passed (every absolute gate holds)")
    return 0


def _cmd_health(args) -> int:
    import json
    from pathlib import Path

    from repro.obs.telemetry import (
        FLIGHT_SCHEMA,
        render_findings,
        render_flight_timeline,
        render_rank_summary,
        run_health_checks,
        to_openmetrics,
        write_telemetry_json,
    )

    if args.run:
        snapshot = _run_health_demo(args)
        if args.out:
            write_telemetry_json(snapshot, args.out)
            print(f"wrote telemetry snapshot: {args.out}", file=sys.stderr)
    elif args.file:
        path = Path(args.file)
        if not path.is_file():
            print(f"no telemetry snapshot at {path}", file=sys.stderr)
            return 1
        try:
            snapshot = json.loads(path.read_text())
        except ValueError as exc:
            print(f"{path} is not valid JSON: {exc}", file=sys.stderr)
            return 1
        if isinstance(snapshot, dict) and snapshot.get("schema") == FLIGHT_SCHEMA:
            # A flight-recorder dump (e.g. from chaos-train
            # --flight-dir): render the lifecycle transition timeline
            # instead of the metric detectors.
            print(render_flight_timeline(snapshot))
            return 0
        if not isinstance(snapshot, dict) or "series" not in snapshot:
            print(
                f"{path} is not a telemetry snapshot (no 'series' key) nor "
                "a flight dump",
                file=sys.stderr,
            )
            return 1
    else:
        print("health: pass a telemetry JSON file or --run", file=sys.stderr)
        return 2

    if args.openmetrics:
        Path(args.openmetrics).parent.mkdir(parents=True, exist_ok=True)
        Path(args.openmetrics).write_text(to_openmetrics(snapshot))
        print(f"wrote OpenMetrics export: {args.openmetrics}", file=sys.stderr)

    print(render_rank_summary(snapshot))
    findings = run_health_checks(snapshot)
    print(render_findings(findings))
    if findings and args.strict:
        return 1
    return 0


def _run_health_demo(args) -> dict:
    """Run a small chaos-train job and return its telemetry snapshot.

    With ``--slow-rank`` the chaos engine stretches that rank's message
    sends, which balloons its exchange phase time — exactly the signature
    :func:`~repro.obs.telemetry.detect_stragglers` looks for.
    """
    from repro.data import SyntheticSpec
    from repro.faults import run_chaos_train
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    chaos = ""
    if args.slow_rank is not None:
        chaos = f"slow:rank={args.slow_rank},x={args.slow_factor:g}"
        print(f"health demo: injecting {chaos}", file=sys.stderr)
    spec = SyntheticSpec(
        n_samples=args.samples, n_classes=4, n_features=32, seed=args.seed,
    )
    config = TrainConfig(
        model="mlp", in_shape=(32,), num_classes=4,
        epochs=args.epochs, batch_size=8, base_lr=0.05, seed=args.seed,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    result = run_chaos_train(
        config=config, workers=args.workers, q=args.q, profile=chaos,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
    )
    return result.telemetry


def _cmd_lint(args) -> int:
    from repro.analysis import lint_paths

    report = lint_paths(args.paths)
    if args.format == "github":
        for f in report.findings:
            print(f.render_github())
        print(
            f"{len(report.findings)} finding(s) in "
            f"{len(report.files)} file(s)",
            file=sys.stderr,
        )
    else:
        for f in report.findings:
            print(f.render())
        suffix = f", {report.suppressed} suppressed" if report.suppressed else ""
        print(
            f"{len(report.findings)} finding(s) in "
            f"{len(report.files)} file(s){suffix}",
            file=sys.stderr,
        )
    return 1 if report.findings else 0


def _cmd_verify_protocol(args) -> int:
    import time

    from repro.analysis.protocol import (
        DEFAULT_CONFIGS,
        check,
        format_trace,
        run_mutation_sweep,
    )

    failed = False
    t0, states = time.perf_counter(), 0
    for cfg in DEFAULT_CONFIGS:
        res = check(cfg)
        states += res.states
        marker = "bounded" if res.truncated else "exhaustive"
        print(
            f"{cfg.name}: {res.states} states, {res.transitions} "
            f"transitions ({marker}), {len(res.violations)} violation(s)"
        )
        for v in res.violations:
            failed = True
            print(format_trace(v))

    sweep = run_mutation_sweep()
    caught = sum(verdict is not None for verdict in sweep.values())
    for name in sorted(sweep):
        verdict = sweep[name]
        if verdict is None:
            failed = True
            print(f"mutant {name}: SURVIVED — no config distinguishes it "
                  "from the real protocol")
        else:
            print(f"mutant {name}: detected ({verdict.kind})")

    print(
        f"{len(DEFAULT_CONFIGS)} config(s), {states} states; {caught}/{len(sweep)} mutants "
        f"caught; {time.perf_counter() - t0:.1f} s"
    )
    if failed:
        print("verify-protocol: FAILED", file=sys.stderr)
        return 1
    print("verify-protocol: ok", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Dispatch is a name -> handler mapping (``_HANDLERS``): new subcommands
    register a parser in :func:`build_parser` and one entry here.
    """
    args = build_parser().parse_args(argv)
    try:
        handler = _HANDLERS[args.command]
    except KeyError:
        print(f"unhandled command {args.command!r}", file=sys.stderr)
        return 2
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-report; exit quietly.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


#: Subcommand dispatch table — the single registration point ``main`` uses.
_HANDLERS = {
    "train": _cmd_train,
    "trace": _cmd_trace,
    "chaos-train": _cmd_chaos_train,
    "bench": _cmd_bench,
    "health": _cmd_health,
    "lint": _cmd_lint,
    "verify-protocol": _cmd_verify_protocol,
}


if __name__ == "__main__":
    sys.exit(main())
