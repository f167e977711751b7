"""Exchange benchmark: artifact shape and the absolute copy gate.

The exchange gathers each round once into its pooled envelope and never
copies the bytes again; ``check_regression`` must fail an artifact whose
copy counter says otherwise.  The ratio is deterministic (envelope bytes
over logical sample bytes), so no baseline is needed.
"""

import json

from repro.bench import check_regression, run_bench
from repro.bench.runner import EXCHANGE_ARTIFACT, MAX_BYTES_COPIED_PER_SENT_BYTE


def fake_exchange(copied_per_sent=1.0):
    return {"ratios": {"bytes_copied_per_sent_byte": copied_per_sent}}


class TestExchangeGate:
    def test_single_gather_passes(self):
        assert check_regression(fake_exchange(), {}) == []

    def test_second_copy_flagged(self):
        problems = check_regression(fake_exchange(2.0), {})
        assert any("bytes copied per sent byte" in p for p in problems)

    def test_cap_is_inclusive(self):
        assert check_regression(
            fake_exchange(MAX_BYTES_COPIED_PER_SENT_BYTE), {}
        ) == []


def test_smoke_run_writes_single_mode_artifact(tmp_path):
    result = run_bench(
        scenarios=("exchange",), smoke=True, out_dir=tmp_path, check=True,
        baseline_dir=tmp_path,
    )
    assert result["problems"] == []
    art = json.loads((tmp_path / EXCHANGE_ARTIFACT).read_text())
    assert art["schema"] == "repro.bench.exchange/v2"
    run = art["exchange"]
    assert run["sent_samples"] > 0
    # Allocations are pool misses, reported as measured.
    assert run["allocations"] == run["pool"]["misses"]
    assert run["pool"]["in_use"] == 0
    assert [row["q"] for row in art["q_sweep"]] == [0.25, 0.5, 1.0]
