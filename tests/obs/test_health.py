"""Health detectors over telemetry snapshots, synthetic and live.

The acceptance bar: a run with one artificially slowed rank must name that
rank in a straggler finding — exercised here end-to-end through the chaos
``slow`` clause, plus synthetic snapshots pinning down each detector's
decision rule and its negative space.
"""

import pytest

from repro.obs.telemetry import (
    HealthFinding,
    detect_deficit_growth,
    detect_pool_leak,
    detect_stragglers,
    render_findings,
    render_rank_summary,
    run_health_checks,
)


def make_snapshot(series: dict) -> dict:
    """Snapshot stub from {metric: {rank: [values]}} (seq = list index)."""
    ranks = sorted({r for by in series.values() for r in by})
    return {
        "schema": "repro.obs.telemetry/v1",
        "pushes": sum(len(v) for by in series.values() for v in by.values()),
        "ranks": ranks,
        "series": {
            metric: {
                str(rank): [[seq, float(v)] for seq, v in enumerate(values)]
                for rank, values in by.items()
            }
            for metric, by in series.items()
        },
        "last": {},
        "quantiles": {},
    }


def phases(io, exchange, fw_bw, wait, epochs=3):
    return {
        "phase.io_s": {r: [v] * epochs for r, v in io.items()},
        "phase.exchange_s": {r: [v] * epochs for r, v in exchange.items()},
        "phase.fw_bw_s": {r: [v] * epochs for r, v in fw_bw.items()},
        "phase.ge_wu_s": {r: [v] * epochs for r, v in wait.items()},
    }


class TestStragglerDetector:
    def test_busy_ratio_route_flags_critical(self):
        # Rank 3's exchange is 10x everyone's: ratio route, critical.
        snap = make_snapshot(phases(
            io={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
            exchange={0: 0.1, 1: 0.1, 2: 0.1, 3: 1.0},
            fw_bw={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
            wait={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
        ))
        findings = detect_stragglers(snap)
        assert len(findings) == 1
        f = findings[0]
        assert f.rank == 3
        assert f.kind == "straggler"
        assert f.severity == "critical"
        assert f.extra["signal"] == "busy ratio"
        assert "rank 3" in f.detail

    def test_wait_share_route_flags_modest_excess(self):
        # The synchronous-exchange signature: the slow rank's busy excess is
        # below the ratio threshold (peers absorb its delay inside their own
        # exchange phase) but it alone never waits at the allreduce.
        snap = make_snapshot(phases(
            io={0: 0.005, 1: 0.005, 2: 0.005, 3: 0.005},
            exchange={0: 0.49, 1: 0.50, 2: 0.73, 3: 0.50},
            fw_bw={0: 0.01, 1: 0.01, 2: 0.01, 3: 0.01},
            wait={0: 0.27, 1: 0.26, 2: 0.02, 3: 0.27},
        ))
        findings = detect_stragglers(snap)
        assert [f.rank for f in findings] == [2]
        assert findings[0].extra["signal"] == "wait share"
        assert findings[0].severity == "warn"

    def test_uniform_run_is_clean(self):
        snap = make_snapshot(phases(
            io={r: 0.1 for r in range(4)},
            exchange={r: 0.2 for r in range(4)},
            fw_bw={r: 0.3 for r in range(4)},
            wait={r: 0.05 for r in range(4)},
        ))
        assert detect_stragglers(snap) == []

    def test_tiny_absolute_gaps_not_flagged(self):
        # Microsecond-scale jitter clears the ratio but not the absolute
        # floor: smoke-scale runs must not cry wolf.
        snap = make_snapshot(phases(
            io={0: 1e-5, 1: 1e-5},
            exchange={0: 1e-5, 1: 9e-5},
            fw_bw={0: 1e-5, 1: 1e-5},
            wait={0: 1e-4, 1: 1e-4},
        ))
        assert detect_stragglers(snap) == []

    def test_single_rank_is_never_a_straggler(self):
        snap = make_snapshot(phases(
            io={0: 0.1}, exchange={0: 5.0}, fw_bw={0: 0.1}, wait={0: 0.0},
        ))
        assert detect_stragglers(snap) == []

    def test_works_without_wait_series(self):
        snap = make_snapshot({
            "phase.io_s": {0: [0.1], 1: [0.1], 2: [0.1]},
            "phase.exchange_s": {0: [0.1], 1: [0.1], 2: [1.0]},
            "phase.fw_bw_s": {0: [0.1], 1: [0.1], 2: [0.1]},
        })
        findings = detect_stragglers(snap)
        assert [f.rank for f in findings] == [2]
        assert findings[0].extra["signal"] == "busy ratio"


class TestDeficitGrowth:
    def test_growing_deficit_flagged(self):
        snap = make_snapshot({"exchange.q_deficit": {0: [0, 4, 9, 15]}})
        findings = detect_deficit_growth(snap)
        assert len(findings) == 1
        assert findings[0].kind == "deficit-growth"
        assert findings[0].value == 15

    def test_recovering_deficit_not_flagged(self):
        snap = make_snapshot({"exchange.q_deficit": {0: [9, 4, 0, 0]}})
        assert detect_deficit_growth(snap) == []

    def test_constant_deficit_not_flagged(self):
        snap = make_snapshot({"exchange.q_deficit": {0: [3, 3, 3, 3]}})
        assert detect_deficit_growth(snap) == []

    def test_short_series_not_flagged(self):
        snap = make_snapshot({"exchange.q_deficit": {0: [0, 5]}})
        assert detect_deficit_growth(snap) == []


class TestPoolLeak:
    def test_monotonic_drift_flagged(self):
        snap = make_snapshot({"pool.in_use": {1: [2, 4, 7]}})
        findings = detect_pool_leak(snap)
        assert len(findings) == 1
        assert findings[0].kind == "pool-leak"
        assert findings[0].rank == 1

    def test_sawtooth_not_flagged(self):
        snap = make_snapshot({"pool.in_use": {0: [2, 5, 2, 5, 2]}})
        assert detect_pool_leak(snap) == []

    def test_flat_occupancy_not_flagged(self):
        snap = make_snapshot({"pool.in_use": {0: [3, 3, 3, 3]}})
        assert detect_pool_leak(snap) == []


class TestRunHealthChecks:
    def test_critical_sorted_first(self):
        snap = make_snapshot({
            **phases(
                io={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
                exchange={0: 0.1, 1: 0.1, 2: 0.1, 3: 2.0},
                fw_bw={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
                wait={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
            ),
            "pool.in_use": {0: [2, 4, 7]},
        })
        findings = run_health_checks(snap)
        assert [f.kind for f in findings] == ["straggler", "pool-leak"]
        assert findings[0].severity == "critical"

    def test_finding_to_dict_is_json_ready(self):
        import json

        f = HealthFinding(
            kind="straggler", severity="warn", rank=2,
            metric="phase.busy_s", value=1.0, threshold=0.5,
        )
        json.dumps(f.to_dict())


class TestRendering:
    def test_findings_table_names_the_rank(self):
        snap = make_snapshot(phases(
            io={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
            exchange={0: 0.1, 1: 0.1, 2: 0.1, 3: 1.0},
            fw_bw={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
            wait={0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1},
        ))
        text = render_findings(run_health_checks(snap))
        assert "straggler" in text
        assert "rank 3" in text

    def test_all_clear_line(self):
        assert "OK" in render_findings([])

    def test_rank_summary_lists_every_rank(self):
        snap = make_snapshot(phases(
            io={0: 0.1, 1: 0.2}, exchange={0: 0.1, 1: 0.2},
            fw_bw={0: 0.1, 1: 0.2}, wait={0: 0.1, 1: 0.2},
        ))
        text = render_rank_summary(snap)
        assert "busy_s" in text
        assert "2 rank(s)" in text

    def test_rank_summary_empty_snapshot(self):
        assert "no pushes" in render_rank_summary({"ranks": [], "series": {}})


class TestSlowedRankEndToEnd:
    """Acceptance: a chaos-slowed rank is named as a straggler finding."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        from repro.data import SyntheticSpec
        from repro.elastic import run_lifecycle
        from repro.train.experiments import make_experiment_data
        from repro.train.trainer import TrainConfig

        spec = SyntheticSpec(n_samples=240, n_classes=4, n_features=16, seed=0)
        train_ds, labels, val_X, val_y = make_experiment_data(spec)
        config = TrainConfig(
            model="mlp", in_shape=(16,), num_classes=4,
            epochs=3, batch_size=8, base_lr=0.05,
            partition="class_sorted", seed=0,
        )
        result = run_lifecycle(
            config=config, workers=4, q=0.3, profile="slow:rank=2,x=12",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        return result.telemetry

    def test_slowed_rank_named(self, snapshot):
        findings = run_health_checks(snapshot)
        stragglers = [f for f in findings if f.kind == "straggler"]
        assert stragglers, "slowed rank produced no straggler finding"
        assert stragglers[0].rank == 2

    def test_no_false_positives_on_other_ranks(self, snapshot):
        flagged = {f.rank for f in detect_stragglers(snapshot)}
        assert flagged == {2}


class TestFlightTimeline:
    """`render_flight_timeline`: the post-mortem view of a self-healing run."""

    def make_dump(self):
        from repro.obs.telemetry import FLIGHT_SCHEMA

        return {
            "schema": FLIGHT_SCHEMA,
            "reason": "lifecycle-complete",
            "ranks": {
                "0": [
                    {"ts": 10.0, "kind": "lifecycle.checkpoint", "epoch": 1},
                    {"ts": 10.5, "kind": "exchange.send", "peer": 1},
                    {"ts": 12.0, "kind": "lifecycle.restart", "epoch": 2},
                    {"ts": 13.0, "kind": "lifecycle.verified"},
                ],
                "1": [
                    {"ts": 11.0, "kind": "rank.died", "point": "mid_exchange"},
                    {"ts": 12.5, "kind": "elastic.recovered"},
                ],
            },
        }

    def test_events_merged_across_ranks_in_time_order(self):
        from repro.obs.telemetry import render_flight_timeline

        text = render_flight_timeline(self.make_dump())
        order = [
            "lifecycle.checkpoint", "rank.died", "lifecycle.restart",
            "elastic.recovered", "lifecycle.verified",
        ]
        positions = [text.index(kind) for kind in order]
        assert positions == sorted(positions), text
        assert "lifecycle timeline: 5 event(s)" in text
        assert "lifecycle-complete" in text

    def test_non_lifecycle_events_filtered_out(self):
        from repro.obs.telemetry import render_flight_timeline

        assert "exchange.send" not in render_flight_timeline(self.make_dump())

    def test_timestamps_rebased_to_first_event(self):
        from repro.obs.telemetry import render_flight_timeline

        text = render_flight_timeline(self.make_dump())
        assert "+0.000s" in text and "+3.000s" in text

    def test_empty_dump(self):
        from repro.obs.telemetry import render_flight_timeline

        assert "no lifecycle events" in render_flight_timeline({"ranks": {}})
