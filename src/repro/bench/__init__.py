"""Benchmark scenarios behind ``repro bench``.

Each scenario (exchange, telemetry, robustness, backend) runs one
subsystem at a fixed size and writes a machine-readable
``BENCH_<scenario>.json`` artifact the CI smoke jobs gate on.  See
``docs/performance.md`` for how to run them and how to read the numbers;
the end-to-end training benchmark lives in ``benchmarks/perf/``.
"""

from .backend import bench_backend
from .exchange import bench_exchange, exchange_q_sweep
from .runner import (
    ARTIFACTS,
    DEFAULT_RESULTS_DIR,
    MAX_MIGRATION_SHARE,
    MIN_REJOIN_SPEED,
    check_regression,
    run_bench,
)
from .robustness import bench_robustness
from .telemetry import FLIGHT_OVERHEAD_BUDGET, bench_telemetry

__all__ = [
    "bench_backend",
    "bench_exchange",
    "exchange_q_sweep",
    "bench_telemetry",
    "bench_robustness",
    "run_bench",
    "check_regression",
    "DEFAULT_RESULTS_DIR",
    "ARTIFACTS",
    "FLIGHT_OVERHEAD_BUDGET",
    "MAX_MIGRATION_SHARE",
    "MIN_REJOIN_SPEED",
]
