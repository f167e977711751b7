"""FASTPATH — exchange hot path: time, copies and pool traffic.

Runs the PLS exchange over the in-process world and renders the numbers
``BENCH_exchange.json`` carries for the CI gate: wall time next to the
machine-independent counters (bytes copied per logical byte sent, pool
acquires / hits / misses).  See ``docs/performance.md`` for how to read
them.
"""

import pytest

from repro.bench import bench_exchange
from repro.utils import render_table

from _common import emit, once


def build_rows():
    ex = bench_exchange(ranks=4, samples=128, shape=(32, 32), q=0.5, epochs=3)
    run, pool = ex["exchange"], ex["exchange"]["pool"]
    rows = [
        ["wall time", f"{run['wall_time_s'] * 1e3:.1f} ms"],
        ["samples", f"{run['ops_per_s']:.0f}/s"],
        ["sent bytes", f"{run['sent_bytes']:,} B"],
        ["bytes copied", f"{run['bytes_copied']:,} B"],
        ["copied / sent", f"{ex['ratios']['bytes_copied_per_sent_byte']:.3f}"],
        ["pool acquires", str(pool["acquires"])],
        ["pool hits", str(pool["hits"])],
        ["allocations (pool misses)", str(run["allocations"])],
    ]
    return rows, ex


@pytest.mark.benchmark(group="fastpath")
def test_exchange_fastpath(benchmark):
    rows, ex = once(benchmark, build_rows)
    emit("fastpath_exchange", render_table(["exchange", "value"], rows))
    # One gather copy per round and nothing else on the path.
    assert ex["ratios"]["bytes_copied_per_sent_byte"] <= 1.1
