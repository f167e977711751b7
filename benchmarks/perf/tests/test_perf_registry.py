"""BENCHMARK.json, the metric registry and --compare stay in step."""

import json
from pathlib import Path

from harness import report
from harness.metrics import END_TO_END, PER_LAYER, REPEATS_EXACTLY
from harness.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]


def test_benchmark_json_lists_exactly_the_registry():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))
    assert set(REPEATS_EXACTLY) <= {m.name for m in PER_LAYER}
    assert all(m.bound <= 0.25 for m in END_TO_END)


def _result_file(tmp_path, name, *, sps, digest="d1", rounds=307.0, seed=1):
    e2e = {"samples_per_s": {"value": sps}, "setup_s": {"value": 2.0},
           "peak_rss_mb": {"value": 250.0}}
    layer = {key: {"value": 1.0} for key in REPEATS_EXACTLY}
    layer["shuffle.rounds_per_epoch"] = {"value": rounds}
    doc = {"seed": seed, "env": {"commit": "c"},
           "workloads": {"compute_threads": {"end_to_end": e2e, "per_layer": layer,
                                             "history_digest": digest}}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SPS_BOUND = END_TO_END[0].bound


def test_compare_accepts_differences_inside_the_bounds(tmp_path, capsys):
    a = _result_file(tmp_path, "a.json", sps=900.0)
    b = _result_file(tmp_path, "b.json", sps=900.0 * (1 - SPS_BOUND / 2))
    assert report.compare_files(a, b) == 0
    out = capsys.readouterr().out
    assert "within" in out and "outside" not in out


def test_compare_rejects_a_regression_beyond_the_bound(tmp_path, capsys):
    a = _result_file(tmp_path, "a.json", sps=900.0)
    b = _result_file(tmp_path, "b.json", sps=900.0 * (1 - SPS_BOUND - 0.02))
    assert report.compare_files(a, b) == 1
    assert "outside" in capsys.readouterr().out


def test_compare_rejects_any_difference_in_an_exact_metric(tmp_path):
    a = _result_file(tmp_path, "a.json", sps=900.0)
    assert report.compare_files(a, _result_file(tmp_path, "b.json", sps=900.0, rounds=306.0)) == 1
    assert report.compare_files(a, _result_file(tmp_path, "c.json", sps=900.0, digest="d2")) == 1
    # Another seed trains on other data: its digest is not expected to match.
    assert report.compare_files(
        a, _result_file(tmp_path, "d.json", sps=900.0, digest="d2", seed=2)
    ) == 0
