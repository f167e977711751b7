"""Exchange benchmark: artifact shape and the absolute count gates.

The exchange gathers each sample once into a pooled frame and copies it
once out at install, then releases the frame for the next epoch;
``check_regression`` must fail an artifact whose copy counter or pool
counters say otherwise, on either backend, and one whose ``procs`` run
diverged from ``threads``, leaked ``/dev/shm`` or paid a pipe round trip
per frame.  Every gate is a count or a ratio of counts, so all are
absolute.  Also pins the artifacts ``repro bench`` writes.
"""

import contextlib
import io
import json

import pytest

from repro.bench import ARTIFACTS
from repro.bench.runner import MAX_BYTES_COPIED_PER_SENT_BYTE
from repro.cli import main
from repro.shuffle.scheduler import WINDOWS_IN_FLIGHT_BOUND


def fake_exchange(
    copied_per_sent=1.0, hit_rate=0.5, windows=1, backends=("threads", "procs"), **across
):
    """An exchange artifact whose ``backends`` runs read as given, the
    other run healthy, and the cross-backend fields healthy unless
    ``across`` overrides them."""

    def run(copied, rate, held):
        return {
            "ratios": {"bytes_copied_per_sent_byte": copied, "pool_hit_rate": rate},
            "max_windows_in_flight": held,
        }

    return {
        "modes": {
            backend: run(copied_per_sent, hit_rate, windows) if backend in backends
            else run(2.0, 1.0, 1)
            for backend in ("threads", "procs")
        },
        "ratios": {"round_trips_per_frame": 1.0},
        "identical_shards": True,
        "shm_clean": True,
        "leaked_segments": [],
        **across,
    }


class TestExchangeGate:
    def test_single_gather_passes(self, gates):
        assert gates(exchange=fake_exchange()) == []

    def test_gather_plus_install_copy_passes(self, gates):
        assert gates(exchange=fake_exchange(2.0)) == []

    def test_third_copy_flagged(self, gates):
        problems = gates(exchange=fake_exchange(3.0))
        assert any("bytes copied per sent byte" in p for p in problems)

    def test_cold_pool_flagged(self, gates):
        problems = gates(exchange=fake_exchange(hit_rate=0.0))
        assert any("pool hit rate" in p for p in problems)

    def test_cap_is_inclusive(self, gates):
        assert gates(exchange=fake_exchange(MAX_BYTES_COPIED_PER_SENT_BYTE)) == []

    def test_frames_held_until_commit_flagged(self, gates):
        assert gates(exchange=fake_exchange(windows=WINDOWS_IN_FLIGHT_BOUND)) == []
        problems = gates(exchange=fake_exchange(windows=12))
        assert any("12 windows out at once" in p for p in problems)

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_each_backend_is_gated(self, gates, backend):
        (problem,) = gates(exchange=fake_exchange(3.0, backends=(backend,)))
        assert problem.startswith(f"exchange[{backend}]: 3.00 bytes copied")

    def test_diverged_shards_and_leaked_segments_flagged(self, gates):
        broken = fake_exchange(
            identical_shards=False, shm_clean=False, leaked_segments=["repro-shm-1-0"]
        )
        diverged, leaked = gates(exchange=broken)
        assert "diverged from the threads reference" in diverged
        assert "repro-shm-1-0" in leaked


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """One ``repro bench`` run shared by the tests below: its exit code,
    stdout, stderr and output directory."""
    out_dir = tmp_path_factory.mktemp("bench")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bench", "--out", str(out_dir)])
    return code, out.getvalue(), err.getvalue(), out_dir


def _keys(node):
    """Every dict key anywhere in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def test_smoke_run_writes_single_mode_artifact(bench_run):
    _, _, err, out_dir = bench_run
    assert "REGRESSION: exchange" not in err
    art = json.loads((out_dir / ARTIFACTS["exchange"]).read_text())
    assert art["schema"] == "repro.bench.exchange/v3"
    assert set(art["modes"]) == {"threads", "procs"}
    for run in art["modes"].values():
        assert run["sent_samples"] > 0
        # Allocations are pool misses, reported as measured.
        assert run["allocations"] == run["pool"]["misses"]
        assert run["pool"]["in_use"] == 0
        assert run["pool"]["adopts"] == 0  # frames are released, never pinned
        assert 1.9 < run["ratios"]["bytes_copied_per_sent_byte"] <= 2.1
        assert run["ratios"]["pool_hit_rate"] >= 0.5
        assert run["max_windows_in_flight"] <= WINDOWS_IN_FLIGHT_BOUND
    assert art["identical_shards"] and art["shm_clean"]
    assert art["ratios"]["round_trips_per_frame"] <= 3.0
    # Counts only: no wall time, rate or speedup is recorded anywhere.
    for name in ARTIFACTS.values():
        keys = set(_keys(json.loads((out_dir / name).read_text())))
        timed = {
            k for k in keys
            if "wall" in k or "speedup" in k or k in ("ops_per_s", "cores") or k.endswith("_s")
        }
        assert not timed, (name, timed)


def test_scenario_set_is_the_two_that_remain(bench_run):
    # Where a third scenario would be added: ARTIFACTS and the files
    # ``repro bench`` leaves behind move together.
    code, out, err, out_dir = bench_run
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACTS.values()) == [
        "BENCH_exchange.json",
        "BENCH_robustness_rejoin.json",
    ]
    # Every gate is a count: a healthy tree passes them all, every run.
    assert not [line for line in err.splitlines() if line.startswith("REGRESSION")], err
    assert code == 0
    assert "bench check passed" in out


def test_backend_gate_caps_pipe_round_trips_per_frame(gates):
    from repro.bench.runner import MAX_ROUND_TRIPS_PER_FRAME

    def artifact(trips):
        return fake_exchange(ratios={"round_trips_per_frame": trips})

    assert gates(exchange=artifact(MAX_ROUND_TRIPS_PER_FRAME)) == []
    (problem,) = gates(exchange=artifact(9.2))
    assert "9.20 pipe round trips per sent frame" in problem
