"""The robustness bench gates: absolute, baseline-free, counts only.

The real scenario runs in CI's ``bench-smoke`` job (and the healed
path itself is covered end-to-end by ``tests/elastic/test_lifecycle.py``);
here ``check_regression`` is pinned against synthetic results so each gate
fails for exactly its own reason.
"""

from repro.bench import MAX_MIGRATION_SHARE


def fake_robustness(
    *,
    bit_identical=True,
    capacity_restored=True,
    q_deficit=0.0,
    share=0.25,
):
    return {
        "bit_identical": bit_identical,
        "capacity_restored": capacity_restored,
        "q_deficit_final": q_deficit,
        "ratios": {"migration_share": share},
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

    def test_reshuffling_planner_fails_the_share_cap(self, gates):
        problems = gates(robustness=fake_robustness(share=MAX_MIGRATION_SHARE + 0.1))
        assert any("reshuffled" in p for p in problems)

    def test_missing_ratios_reported(self, gates):
        broken = fake_robustness()
        broken["ratios"] = {}
        (problem,) = gates(robustness=broken)
        assert "'migration_share' missing" in problem
