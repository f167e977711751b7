"""Shard-service traffic benchmark and its CI gate.

``bench_serve`` drives symmetric, overlapping-dataset and fault-injected
tenant traffic through a :class:`~repro.serve.ShardServer`;
``check_regression`` must fail a run whose grant-order fairness drops
below the floor, whose shared cache never hits, or whose injected faults
leak into errors — and must keep passing when the scenario was skipped.
"""

import json

import pytest

from repro.bench import MIN_SERVE_FAIRNESS, bench_serve, check_regression, run_bench
from repro.bench.runner import SERVE_ARTIFACT


@pytest.fixture(scope="module")
def result():
    # 4 tenants so two share each overlap view: the second walker of a
    # view re-requests the first one's gids and must be served from cache.
    return bench_serve(
        tenants=4, samples=64, shape=(3, 4, 4),
        requests=6, batch=4, workers=2, seed=0,
    )


class TestBenchServe:
    def test_structure(self, result):
        assert result["params"]["tenants"] == 4
        assert set(result["ratios"]) == {"fairness_jain", "hot_hit_rate"}
        sym = result["symmetric"]
        assert sym["jain_grant_prefix"] >= MIN_SERVE_FAIRNESS
        assert sym["grants"] == 4 * 6  # every submission granted
        for stats in sym["tenants"].values():
            assert stats["served"] == 6
            assert stats["p50_s"] >= 0.0
            assert stats["p99_s"] >= stats["p50_s"]

    def test_overlapping_tenants_share_the_cache(self, result):
        overlap = result["overlap"]
        assert overlap["hot_hit_rate"] > 0.0
        assert overlap["hot"]["hits"] > 0
        # Dedup: 4 tenants x 24 overlapping gids served, but the backing
        # was read fewer times than the 96 samples delivered.
        assert overlap["pfs_reads"] < 4 * 6 * 4

    def test_injected_faults_are_absorbed(self, result):
        faults = result["faults"]
        assert faults["served"] == faults["submitted"]
        assert faults["errors"] == 0
        assert faults["injected"] >= 0

    def test_json_serializable(self, result):
        json.dumps(result)


def fake_serve(fairness=1.0, hit_rate=0.5, errors=0, served=8, submitted=8):
    return {
        "ratios": {"fairness_jain": fairness, "hot_hit_rate": hit_rate},
        "faults": {"errors": errors, "served": served, "submitted": submitted,
                   "injected": 3},
    }


class TestServeGate:
    def test_healthy_run_passes(self):
        assert check_regression(None, {}, serve=fake_serve()) == []

    def test_unfair_run_fails(self):
        problems = check_regression(None, {}, serve=fake_serve(fairness=0.5))
        assert any("Jain" in p for p in problems)

    def test_cold_shared_cache_fails(self):
        problems = check_regression(None, {}, serve=fake_serve(hit_rate=0.0))
        assert any("hot-cache" in p for p in problems)

    def test_leaked_faults_fail(self):
        problems = check_regression(None, {}, serve=fake_serve(errors=2))
        assert any("flaky" in p for p in problems)
        problems = check_regression(
            None, {}, serve=fake_serve(served=6, submitted=8)
        )
        assert any("6/8" in p for p in problems)

    def test_ratio_regression_against_baseline(self):
        baseline = fake_serve(fairness=1.0, hit_rate=0.6)
        fresh = fake_serve(fairness=0.95, hit_rate=0.3)  # hit rate halved
        problems = check_regression(
            None, {SERVE_ARTIFACT: baseline}, serve=fresh
        )
        assert any("hot_hit_rate" in p for p in problems)

    def test_within_tolerance_passes(self):
        baseline = fake_serve(fairness=1.0, hit_rate=0.5)
        fresh = fake_serve(fairness=0.95, hit_rate=0.45)
        assert check_regression(
            None, {SERVE_ARTIFACT: baseline}, serve=fresh
        ) == []

    def test_skipped_scenario_skips_gate(self):
        assert check_regression(None, {}, serve=None) == []


class TestRunBenchServe:
    def test_smoke_run_writes_artifact(self, tmp_path):
        result = run_bench(
            scenarios=("serve",), smoke=True, out_dir=tmp_path, seed=0
        )
        assert result["problems"] == []
        artifact = json.loads((tmp_path / SERVE_ARTIFACT).read_text())
        assert artifact["schema"] == "repro.bench.serve/v1"
        assert artifact["smoke"] is True
        assert artifact["ratios"]["fairness_jain"] >= MIN_SERVE_FAIRNESS
        assert artifact["ratios"]["hot_hit_rate"] > 0.0
