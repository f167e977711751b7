"""``check_regression`` takes all four scenarios' results: a gate test
passes the scenario under test and healthy results for the other three."""

import pytest

from repro.bench import FLIGHT_OVERHEAD_BUDGET, check_regression

HEALTHY = {
    "exchange": {"ratios": {"bytes_copied_per_sent_byte": 2.0, "pool_hit_rate": 0.5}},
    "telemetry": {
        "ratios": {"flight_overhead": 1.01, "tracing_overhead": 1.2},
        "budget": {"flight_overhead_max": FLIGHT_OVERHEAD_BUDGET},
        "identical_history": True,
    },
    "robustness": {
        "bit_identical": True,
        "capacity_restored": True,
        "q_deficit_final": 0.0,
        "ratios": {"rejoin_speed": 60.0, "migration_share": 0.25},
    },
    "backend": {
        "identical_shards": True,
        "shm_clean": True,
        "ratios": {"procs_speedup": 0.3, "round_trips_per_frame": 1.0},
    },
}


@pytest.fixture
def gates():
    """``gates(exchange=...)``: the problems of a run whose other scenarios
    are healthy."""

    def run(**scenario):
        return check_regression(**{**HEALTHY, **scenario})

    return run
