"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``train``
    Run a shuffling-strategy comparison on a synthetic dataset and print
    the accuracy table (the Figure 5/6 primitive).
``trace``
    Summarize a trace file produced by a ``--trace`` run: per-phase totals,
    per-rank byte counts, top spans and an ASCII Gantt timeline.
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
    Anomaly/straggler report over a telemetry snapshot: read a JSON file
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
    p_trace.add_argument("file", help="trace produced by `repro train --trace`")
    p_trace.add_argument("--top", type=int, default=10,
                         help="how many longest spans to list")
    p_trace.add_argument("--width", type=int, default=72,
                         help="Gantt chart width in columns")
    p_trace.add_argument("--no-gantt", action="store_true",
                         help="skip the ASCII timeline")

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
        help="subsystem benchmarks (writes one BENCH_<scenario>.json each)",
    )
    p_bench.add_argument(
        "--smoke", action="store_true",
        help="small problem sizes for CI (seconds, not minutes)",
    )
    p_bench.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory (default: benchmarks/results)",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="fail unless every absolute gate holds: <= 2.1 bytes copied "
        "per sent byte, pool hit rate >= 0.5 after the first epoch, a rank's "
        "frames out over <= 5 windows, flight overhead inside its "
        "budget, bit-identical histories, capacity restored, Q-deficit "
        "repaid, rejoin_speed >= 5, migration_share <= 0.5, identical "
        "shards, /dev/shm clean",
    )
    p_bench.add_argument("--seed", type=int, default=0, help="benchmark seed")
    p_bench.add_argument(
        "--scenario",
        choices=["all", "exchange", "telemetry", "robustness", "backend"],
        default="all",
        help="which benchmark to run (default: all)",
    )
    add_backend_arg(p_bench)

    p_health = sub.add_parser(
        "health",
        help="straggler/anomaly report over a telemetry snapshot",
    )
    p_health.add_argument(
        "file", nargs="?", default=None,
        help="telemetry JSON snapshot (written by --run --out or a harness)",
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
    p_lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )

    p_vp = sub.add_parser(
        "verify-protocol",
        help="model-check the reliable-exchange protocol (and its mutants)",
    )
    p_vp.add_argument(
        "--config", default=None, metavar="NAME",
        help="run only the named config (default: all)",
    )
    p_vp.add_argument(
        "--mutants", default=None, metavar="NAMES",
        help="comma-separated mutants to sweep (default: all); "
        "'none' skips the sweep",
    )
    p_vp.add_argument(
        "--list-mutants", action="store_true",
        help="list the seeded protocol mutations and exit",
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
        summary = summarize_trace(path, top=args.top)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        print(f"{path} is not a trace file (flight dump or Chrome JSON): {exc}",
              file=sys.stderr)
        return 1
    if not summary.n_events:
        print(f"{path} holds no events", file=sys.stderr)
        return 1
    print(render_summary(summary, width=args.width, gantt_chart=not args.no_gantt))
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
    from repro.bench import SCENARIOS, run_bench

    if args.backend:
        # The bench scenarios launch their SPMD worlds deep inside library
        # code; the environment seam is how a CLI-wide backend choice
        # reaches every run_spmd (the "backend" scenario still pins both
        # backends explicitly for its comparison).
        import os

        from repro.mpi import REPRO_BACKEND_ENV

        os.environ[REPRO_BACKEND_ENV] = args.backend
    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    result = run_bench(
        smoke=args.smoke,
        out_dir=args.out,
        check=args.check,
        seed=args.seed,
        scenarios=scenarios,
    )
    ex, tel = result["exchange"], result["telemetry"]
    rob, bk = result["robustness"], result["backend"]
    artifact_names = {"robustness": "robustness_rejoin"}
    artifacts = ", ".join(
        f"BENCH_{artifact_names.get(name, name)}.json" for name in scenarios
    )
    print(f"wrote {artifacts} to {result['out_dir']}")
    if ex is not None:
        pool = ex["exchange"]["pool"]
        print(
            "exchange: {rate:.0f} samples/s, {copied:.3f} bytes copied per "
            "sent byte, pool {hits}/{acquires} hits, {high} frames at most, "
            "{windows} windows of a rank's frames out at most".format(
                rate=ex["exchange"]["ops_per_s"],
                copied=ex["ratios"]["bytes_copied_per_sent_byte"],
                hits=pool["hits"],
                acquires=pool["acquires"],
                high=pool["high_water"],
                windows=ex["exchange"]["max_windows_in_flight"],
            )
        )
        for q_row in ex["q_sweep"]:
            print(
                f"  Q={q_row['q']:<5g} exchange {q_row['wall_time_s'] * 1e3:8.1f} ms  "
                f"{q_row['ops_per_s']:10.0f} samples/s"
            )
    if tel is not None:
        print(
            "telemetry: flight recorder {flight:.3f}x vs disabled "
            "(budget {budget:.2f}x), full tracing {tracing:.3f}x".format(
                flight=tel["ratios"]["flight_overhead"],
                budget=tel["budget"]["flight_overhead_max"],
                tracing=tel["ratios"]["tracing_overhead"],
            )
        )
    if rob is not None:
        print(
            "robustness: rejoin rebalance {speed:.1f}x cheaper than the run "
            "it heals, {share:.0%} of samples migrated; bit-identical={bit}, "
            "capacity restored={cap}, Q-deficit={qd:g}".format(
                speed=rob["ratios"]["rejoin_speed"],
                share=rob["ratios"]["migration_share"],
                bit=rob["bit_identical"],
                cap=rob["capacity_restored"],
                qd=rob["q_deficit_final"],
            )
        )
    if bk is not None:
        print(
            "backend: procs {speed:.2f}x vs threads on the exchange "
            "({cores} core(s), recorded not gated), {trips:.2f} pipe round "
            "trips per sent frame; shards identical={bit}, "
            "/dev/shm clean={shm}".format(
                speed=bk["ratios"]["procs_speedup"],
                trips=bk["ratios"]["round_trips_per_frame"],
                cores=bk["cores"],
                bit=bk["identical_shards"],
                shm=bk["shm_clean"],
            )
        )
    if args.check:
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

    select = args.select.split(",") if args.select else None
    try:
        report = lint_paths(args.paths, select=select)
    except ValueError as exc:  # unknown rule id in --select
        print(str(exc), file=sys.stderr)
        return 2
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
        MUTATIONS,
        check,
        format_trace,
        run_mutation_sweep,
    )

    if args.list_mutants:
        for name in sorted(MUTATIONS):
            print(f"{name}: {MUTATIONS[name]}")
        return 0

    configs = DEFAULT_CONFIGS
    if args.config is not None:
        configs = tuple(c for c in DEFAULT_CONFIGS if c.name == args.config)
        if not configs:
            known = ", ".join(c.name for c in DEFAULT_CONFIGS)
            print(f"unknown config {args.config!r}; known: {known}",
                  file=sys.stderr)
            return 2

    failed = False
    t0, states, caught, swept = time.perf_counter(), 0, 0, 0
    for cfg in configs:
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

    if args.mutants != "none":
        kwargs = {}
        if args.mutants:
            kwargs["mutations"] = tuple(
                m.strip() for m in args.mutants.split(",") if m.strip()
            )
        try:
            sweep = run_mutation_sweep(configs, **kwargs)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        swept = len(sweep)
        caught = sum(verdict is not None for verdict in sweep.values())
        for name in sorted(sweep):
            verdict = sweep[name]
            if verdict is None:
                failed = True
                scope = (
                    f"config {args.config!r}" if args.config is not None
                    else "the selected configs"
                )
                print(f"mutant {name}: SURVIVED — {scope} cannot "
                      "distinguish it from the real protocol (some mutants "
                      "need a specific world, e.g. no_timeout_nack needs a "
                      "no-deadline config and no_adopt_guard needs 3 ranks)")
            else:
                print(f"mutant {name}: detected ({verdict.kind})")

    print(
        f"{len(configs)} config(s), {states} states; {caught}/{swept} mutants "
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
