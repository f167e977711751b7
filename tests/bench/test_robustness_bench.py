"""The robustness bench gates: absolute, baseline-free, noise-immune.

The real scenario runs in CI's ``bench-smoke`` job (and the healed
path itself is covered end-to-end by ``tests/elastic/test_lifecycle.py``);
here ``check_regression`` is pinned against synthetic results so each gate
fails for exactly its own reason.
"""

from repro.bench import MAX_MIGRATION_SHARE, MIN_REJOIN_SPEED


def fake_robustness(
    *,
    bit_identical=True,
    capacity_restored=True,
    q_deficit=0.0,
    speed=60.0,
    share=0.25,
):
    return {
        "bit_identical": bit_identical,
        "capacity_restored": capacity_restored,
        "q_deficit_final": q_deficit,
        "ratios": {"rejoin_speed": speed, "migration_share": share},
    }


class TestRobustnessGate:
    def test_healthy_run_passes(self, gates):
        assert gates(robustness=fake_robustness()) == []

    def test_divergent_weights_fail(self, gates):
        problems = gates(robustness=fake_robustness(bit_identical=False))
        assert any("bit-identical" in p for p in problems)

    def test_unrestored_capacity_fails(self, gates):
        problems = gates(robustness=fake_robustness(capacity_restored=False))
        assert any("N/M" in p for p in problems)

    def test_outstanding_q_deficit_fails(self, gates):
        problems = gates(robustness=fake_robustness(q_deficit=0.25))
        assert any("deficit" in p and "0.25" in p for p in problems)

    def test_slow_rebalance_fails_the_floor(self, gates):
        problems = gates(robustness=fake_robustness(speed=MIN_REJOIN_SPEED - 1))
        assert any("floor" in p for p in problems)

    def test_noisy_but_fast_rebalance_passes_without_a_baseline(self, gates):
        # The whole point of the absolute floor: a 61x run and an 88x run
        # are the same healthy system measured on different machines.
        for speed in (MIN_REJOIN_SPEED, 61.0, 88.0, 500.0):
            assert gates(robustness=fake_robustness(speed=speed)) == []

    def test_reshuffling_planner_fails_the_share_cap(self, gates):
        problems = gates(robustness=fake_robustness(share=MAX_MIGRATION_SHARE + 0.1))
        assert any("reshuffled" in p for p in problems)

    def test_missing_ratios_reported(self, gates):
        broken = fake_robustness()
        broken["ratios"] = {}
        problems = gates(robustness=broken)
        assert any("rejoin_speed" in p for p in problems)
        assert any("migration_share" in p for p in problems)
