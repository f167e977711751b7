#!/usr/bin/env python3
"""The repository benchmark: PLS training throughput on both backends.

    python benchmarks/perf/run.py --seed S                  # all four workloads
    python benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1
    python benchmarks/perf/run.py --compare A.json B.json

See ``README.md`` beside this file for the workloads, the metrics and how to
read the output.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is imported: an unpinned BLAS moved a `procs` epoch
# 2.6x in sizing runs (two rank processes each spawning a thread per core).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import signal
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"


def _use_checkout_sources() -> None:
    """Make ``import repro`` mean this checkout's ``src/`` and nothing else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(PERF_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"benchmark: 'repro' resolves to {repro.__file__}, not to this checkout")


def _raise_fd_limit() -> int:
    """Lift the soft descriptor limit to the hard one (the `procs` exchange
    holds two descriptors per shared segment it ever created)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
            soft = hard
        except (ValueError, OSError):
            pass
    return soft


def _child_pass(spec_path: str, result_path: str) -> int:
    from harness.onepass import run_pass
    from harness.workloads import PassSpec

    with open(spec_path) as fh:
        spec = PassSpec(**json.load(fh))
    result = run_pass(spec, str(OUT_DIR))
    with open(result_path, "w") as fh:
        # numpy scalars (losses, counters) are the only non-JSON values.
        json.dump(result, fh, default=lambda value: value.item())
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (inputs derive from it)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring budget per workload (sizes the number of untraced passes)")
    ap.add_argument("--workload", help="run one workload and print one JSON result line")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result files of the all-workloads run")
    ap.add_argument("--child-pass", nargs=2, metavar=("SPEC", "RESULT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        sys.path.insert(0, str(PERF_DIR))
        from harness.report import compare_files

        return compare_files(*args.compare)

    _use_checkout_sources()
    fd_limit = _raise_fd_limit()
    if args.child_pass:
        return _child_pass(*args.child_pass)

    from harness import report
    from harness.workloads import WORKLOADS

    # A terminated run unwinds through spawn_pass, which takes the pass it
    # started (and its rank processes) down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    OUT_DIR.mkdir(exist_ok=True)
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            sys.exit(f"benchmark: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
        return report.run_one(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            OUT_DIR, fd_limit,
        )
    return report.run_all(args.seed, args.seconds, OUT_DIR, fd_limit)


if __name__ == "__main__":
    sys.exit(main())
