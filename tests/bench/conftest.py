"""``check_regression`` takes both scenarios' results: a gate test passes
the scenario under test and a healthy result for the other."""

import pytest

from repro.bench import check_regression

#: One backend's exchange run at the caps and floors.
HEALTHY_RUN = {
    "ratios": {"bytes_copied_per_sent_byte": 2.0, "pool_hit_rate": 0.5},
    "max_windows_in_flight": 5,
}

HEALTHY = {
    "exchange": {
        "modes": {"threads": HEALTHY_RUN, "procs": HEALTHY_RUN},
        "ratios": {"round_trips_per_frame": 1.0},
        "identical_shards": True,
        "shm_clean": True,
        "leaked_segments": [],
    },
    "robustness": {
        "bit_identical": True,
        "capacity_restored": True,
        "q_deficit_final": 0.0,
        "ratios": {"migration_share": 0.25},
    },
}


@pytest.fixture
def gates():
    """``gates(exchange=...)``: the problems of a run whose other scenario
    is healthy."""

    def run(**scenario):
        return check_regression(**{**HEALTHY, **scenario})

    return run
