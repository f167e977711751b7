"""The product names ``benchmarks/perf`` wraps, checked where a rename is made.

The benchmark times every layer from outside: for one traced pass it
replaces public functions and methods by recording wrappers
(``harness.layers``), looked up *by name*.  A rename under ``src/`` passes
every other tier-1 test and fails only in the benchmark pipeline; this
module fails it here.  The harness is imported read-only from its own
directory and every wrapper is removed again.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from repro.mpi import run_spmd

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERF))
    from harness import layers
    from harness.spans import Patcher

    patcher = Patcher()
    yield layers, patcher
    patcher.remove_all()
    for name in [m for m in sys.modules if m.split(".")[0] == "harness"]:
        del sys.modules[name]


def test_every_launch_time_wrapper_finds_its_target(harness):
    layers, patcher = harness
    layers.install_wrappers(patcher)  # AttributeError names what moved
    assert patcher.installed() >= 39
    patcher.remove_all()
    assert patcher.installed() == 0


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_rank_wrappers_find_the_pool_and_the_recorder(harness, backend):
    layers, patcher = harness

    def worker(comm):
        layers.install_rank_wrappers(patcher, comm)
        installed = patcher.installed()
        # Through the wrappers, on a live world.
        comm.flight.record("probe", rank=comm.rank)
        comm.pool.acquire(64).release()
        comm.barrier()
        return installed

    result = run_spmd(worker, 2, backend=backend)
    assert list(result) == [2, 2]
    probes = [
        e["rank"] for rec in result.world.flight.recorders
        for e in rec.events() if e["kind"] == "probe"
    ]
    assert probes == [0, 1]


def test_the_harness_launch_binds_to_run_spmd():
    """The harness launches its ranks with keywords (``copy_on_send`` among
    them): each ``run_spmd(...)`` call in ``harness/onepass.py`` must still
    bind to the signature."""
    tree = ast.parse((PERF / "harness" / "onepass.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_spmd"
    ]
    assert calls
    signature = inspect.signature(run_spmd)
    for call in calls:
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
