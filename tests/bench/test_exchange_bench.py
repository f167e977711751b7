"""Exchange benchmark: artifact shape and the absolute copy / recycle gates.

The exchange gathers each sample once into a pooled frame and copies it
once out at install, then releases the frame for the next epoch;
``check_regression`` must fail an artifact whose copy counter or pool
counters say otherwise.  Both ratios are deterministic, so the gates are
absolute.  Also pins the artifacts ``repro bench`` writes.
"""

import contextlib
import io
import json

import pytest

from repro.bench import ARTIFACTS
from repro.bench.runner import MAX_BYTES_COPIED_PER_SENT_BYTE
from repro.cli import main


def fake_exchange(copied_per_sent=1.0, hit_rate=0.5):
    return {
        "ratios": {
            "bytes_copied_per_sent_byte": copied_per_sent,
            "pool_hit_rate": hit_rate,
        }
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


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """One ``repro bench`` run shared by the tests below: its exit code,
    stdout, stderr and output directory."""
    out_dir = tmp_path_factory.mktemp("bench")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bench", "--out", str(out_dir)])
    return code, out.getvalue(), err.getvalue(), out_dir


def test_smoke_run_writes_single_mode_artifact(bench_run):
    _, _, err, out_dir = bench_run
    assert "REGRESSION: exchange" not in err
    art = json.loads((out_dir / ARTIFACTS["exchange"]).read_text())
    assert art["schema"] == "repro.bench.exchange/v2"
    run = art["exchange"]
    assert run["sent_samples"] > 0
    # Allocations are pool misses, reported as measured.
    assert run["allocations"] == run["pool"]["misses"]
    assert run["pool"]["in_use"] == 0
    assert run["pool"]["adopts"] == 0  # frames are released, never pinned
    assert 1.9 < art["ratios"]["bytes_copied_per_sent_byte"] <= 2.1
    assert art["ratios"]["pool_hit_rate"] > 0
    assert [row["q"] for row in art["q_sweep"]] == [0.25, 0.5, 1.0]


def test_scenario_set_is_the_four_that_remain(bench_run):
    # Where a fifth scenario would be added: ARTIFACTS and the files
    # ``repro bench`` leaves behind move together.
    code, out, err, out_dir = bench_run
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACTS.values()) == [
        "BENCH_backend.json",
        "BENCH_exchange.json",
        "BENCH_robustness_rejoin.json",
        "BENCH_telemetry.json",
    ]
    # Every gate but the telemetry wall-time ratio is deterministic.
    regressions = [line for line in err.splitlines() if line.startswith("REGRESSION")]
    assert all("flight-recorder overhead" in line for line in regressions), err
    assert code == (1 if regressions else 0)
    if not regressions:
        assert "bench check passed" in out
    telemetry = json.loads((out_dir / ARTIFACTS["telemetry"]).read_text())
    assert telemetry["schema"] == "repro.bench.telemetry/v1"


def test_backend_gate_caps_pipe_round_trips_per_frame(gates):
    from repro.bench.backend import MAX_ROUND_TRIPS_PER_FRAME

    def artifact(trips):
        return {
            "identical_shards": True, "shm_clean": True,
            "ratios": {"procs_speedup": 0.3, "round_trips_per_frame": trips},
        }

    assert gates(backend=artifact(MAX_ROUND_TRIPS_PER_FRAME)) == []
    (problem,) = gates(backend=artifact(9.2))
    assert "9.20 pipe round trips per sent frame" in problem
