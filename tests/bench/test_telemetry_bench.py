"""Telemetry overhead benchmark and its CI gate.

``bench_telemetry`` measures disabled / flight-only / tracing epoch cost;
``check_regression`` must fail a run whose flight-recorder overhead blows
the budget or that perturbed the training result.
"""

import json

import pytest

from repro.bench import ARTIFACTS, FLIGHT_OVERHEAD_BUDGET, bench_telemetry


@pytest.fixture(scope="module")
def result():
    return bench_telemetry(
        ranks=2, samples=48, features=8, classes=2,
        batch_size=8, epochs=1, repeats=1, seed=0,
    )


class TestBenchTelemetry:
    def test_structure(self, result):
        assert set(result["modes"]) == {"disabled", "flight", "tracing"}
        for mode in result["modes"].values():
            assert mode["wall_time_s"] > 0
            assert mode["per_epoch_s"] > 0
        assert result["budget"]["flight_overhead_max"] == FLIGHT_OVERHEAD_BUDGET
        assert result["ratios"]["flight_overhead"] > 0
        assert result["ratios"]["tracing_overhead"] > 0

    def test_flight_gate_provably_toggled(self, result):
        # Disabled mode must record nothing; flight mode must push.
        assert result["pushes"]["disabled"] == 0
        assert result["pushes"]["flight"] > 0

    def test_telemetry_is_inert(self, result):
        assert result["identical_history"] is True

    def test_json_serializable(self, result):
        json.dumps(result)


def fake_telemetry(overhead=1.01, identical=True):
    return {
        "ratios": {"flight_overhead": overhead, "tracing_overhead": 1.2},
        "budget": {"flight_overhead_max": FLIGHT_OVERHEAD_BUDGET},
        "identical_history": identical,
    }


class TestOverheadGate:
    def test_within_budget_passes(self, gates):
        assert gates(telemetry=fake_telemetry()) == []

    def test_budget_breach_fails(self, gates):
        problems = gates(telemetry=fake_telemetry(overhead=1.2))
        assert any("budget" in p for p in problems)

    def test_perturbed_training_fails(self, gates):
        problems = gates(telemetry=fake_telemetry(identical=False))
        assert any("changed the training result" in p for p in problems)


class TestScenarioSelection:
    def test_scenarios_constant(self):
        assert tuple(ARTIFACTS) == ("exchange", "telemetry", "robustness", "backend")
