"""Exchange benchmark: artifact shape and the absolute copy / recycle gates.

The exchange gathers each sample once into a pooled frame and copies it
once out at install, then releases the frame for the next epoch;
``check_regression`` must fail an artifact whose copy counter or pool
counters say otherwise.  Both ratios are deterministic, so the gates are
absolute.  Also pins the scenario set ``repro bench`` offers.
"""

import json

from repro.bench import SCENARIOS, check_regression, run_bench
from repro.bench.runner import EXCHANGE_ARTIFACT, MAX_BYTES_COPIED_PER_SENT_BYTE
from repro.cli import main


def fake_exchange(copied_per_sent=1.0, hit_rate=0.5):
    return {
        "ratios": {
            "bytes_copied_per_sent_byte": copied_per_sent,
            "pool_hit_rate": hit_rate,
        }
    }


class TestExchangeGate:
    def test_single_gather_passes(self):
        assert check_regression(fake_exchange()) == []

    def test_gather_plus_install_copy_passes(self):
        assert check_regression(fake_exchange(2.0)) == []

    def test_third_copy_flagged(self):
        problems = check_regression(fake_exchange(3.0))
        assert any("bytes copied per sent byte" in p for p in problems)

    def test_cold_pool_flagged(self):
        problems = check_regression(fake_exchange(hit_rate=0.0))
        assert any("pool hit rate" in p for p in problems)

    def test_cap_is_inclusive(self):
        assert check_regression(
            fake_exchange(MAX_BYTES_COPIED_PER_SENT_BYTE)
        ) == []


def test_smoke_run_writes_single_mode_artifact(tmp_path):
    result = run_bench(
        scenarios=("exchange",), smoke=True, out_dir=tmp_path, check=True,
    )
    assert result["problems"] == []
    art = json.loads((tmp_path / EXCHANGE_ARTIFACT).read_text())
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


def test_scenario_set_is_the_four_that_remain(tmp_path, capsys):
    # Where a fifth scenario would be added: the constant, the CLI choice
    # and the artifacts ``--scenario all`` leaves behind move together.
    assert SCENARIOS == ("exchange", "telemetry", "robustness", "backend")
    assert main(["bench", "--smoke", "--scenario", "all", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_backend.json",
        "BENCH_exchange.json",
        "BENCH_robustness_rejoin.json",
        "BENCH_telemetry.json",
    ]


def test_backend_gate_caps_pipe_round_trips_per_frame():
    from repro.bench.backend import MAX_ROUND_TRIPS_PER_FRAME

    def artifact(trips):
        return {
            "identical_shards": True, "shm_clean": True,
            "ratios": {"procs_speedup": 0.3, "round_trips_per_frame": trips},
        }

    assert check_regression(None, backend=artifact(MAX_ROUND_TRIPS_PER_FRAME)) == []
    (problem,) = check_regression(None, backend=artifact(9.2))
    assert "9.20 pipe round trips per sent frame" in problem
