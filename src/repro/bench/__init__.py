"""Benchmark scenarios behind ``repro bench``.

Each scenario (exchange, robustness) runs one subsystem at a fixed size and
writes a machine-readable ``BENCH_<scenario>.json`` artifact the CI smoke
job gates on; every gate is a count or a ratio of counts.  See
``docs/performance.md`` for how to run them and how to read the numbers;
the end-to-end training benchmark lives in ``benchmarks/perf/``.
"""

from .exchange import bench_exchange
from .robustness import bench_robustness
from .runner import (
    ARTIFACTS,
    MAX_MIGRATION_SHARE,
    check_regression,
    run_bench,
)

__all__ = [
    "bench_exchange",
    "bench_robustness",
    "run_bench",
    "check_regression",
    "ARTIFACTS",
    "MAX_MIGRATION_SHARE",
]
