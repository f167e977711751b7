"""Cross-rank telemetry aggregation: ingestion, export, and the push wire.

Covers the aggregator in isolation (series, quantile digests, OpenMetrics
and JSON exports) and the live path: every rank pushes over the
communicator on the dedicated tag, rank 0 drains, and the folded series
land on ``world.telemetry`` without a single collective.
"""

import json
import math

import pytest

from repro.mpi import run_spmd
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    TELEMETRY_TAG,
    TelemetryAggregator,
    drain_pending,
    push_metrics,
    to_openmetrics,
    write_telemetry_json,
)


class TestAggregator:
    def test_series_keyed_by_metric_then_rank(self):
        agg = TelemetryAggregator()
        agg.ingest(0, 0, {"loss": 1.0, "busy": 0.5})
        agg.ingest(1, 0, {"loss": 2.0})
        agg.ingest(0, 1, {"loss": 0.5})
        snap = agg.snapshot()
        assert snap["schema"] == TELEMETRY_SCHEMA
        assert snap["pushes"] == 3
        assert snap["ranks"] == [0, 1]
        assert snap["series"]["loss"]["0"] == [[0, 1.0], [1, 0.5]]
        assert snap["series"]["loss"]["1"] == [[0, 2.0]]
        assert snap["last"]["loss"] == {"0": 0.5, "1": 2.0}

    def test_nan_values_skipped(self):
        agg = TelemetryAggregator()
        agg.ingest(0, 0, {"bad": math.nan, "good": 1.0})
        snap = agg.snapshot()
        assert "bad" not in snap["series"]
        assert "good" in snap["series"]

    def test_quantiles_exact_for_short_streams(self):
        agg = TelemetryAggregator()
        for i in range(100):
            agg.ingest(0, i, {"v": float(i)})
        q = agg.snapshot()["quantiles"]["v"]
        assert q["count"] == 100
        assert q["p50"] == pytest.approx(49.5, abs=1.0)
        assert q["p99"] >= 97.0

    def test_snapshot_is_json_serializable(self):
        agg = TelemetryAggregator()
        agg.ingest(2, 0, {"v": 1.25})
        json.dumps(agg.snapshot())


class TestExports:
    @pytest.fixture()
    def snapshot(self):
        agg = TelemetryAggregator()
        for rank in range(3):
            for seq in range(4):
                agg.ingest(rank, seq, {"phase.io_s": 0.1 * (rank + 1)})
        return agg.snapshot()

    def test_openmetrics_shape(self, snapshot):
        text = to_openmetrics(snapshot)
        assert "# TYPE repro_phase_io_s gauge" in text
        assert '# HELP repro_phase_io_s' in text
        assert 'repro_phase_io_s{rank="2"} 0.3' in text
        assert 'quantile="0.50"' in text
        assert text.endswith("# EOF\n")

    def test_json_roundtrip(self, snapshot, tmp_path):
        path = write_telemetry_json(snapshot, tmp_path / "tele.json")
        assert json.loads(path.read_text()) == snapshot

class TestPushWire:
    def test_tag_outside_exchange_ranges(self):
        # Data rounds live at 1<<16 + round, control at 1<<18, epoch parity
        # at 1<<20: the telemetry tag must collide with none of them.
        assert (1 << 16) <= TELEMETRY_TAG
        assert TELEMETRY_TAG not in range(1 << 16, 1 << 17)
        assert TELEMETRY_TAG != (1 << 18)
        assert TELEMETRY_TAG != (1 << 20)

    def test_all_ranks_delivered_to_world_aggregator(self):
        def worker(comm):
            push_metrics(comm, 7, {"m": float(comm.rank)})
            comm.allreduce(0.0)  # the push-before-collective delivery barrier
            if comm.rank == 0:
                drain_pending(comm)
            return None

        res = run_spmd(worker, 4)
        snap = res.world.telemetry.snapshot()
        assert snap["pushes"] == 4
        assert snap["last"]["m"] == {"0": 0.0, "1": 1.0, "2": 2.0, "3": 3.0}
        assert all(points == [[7, float(r)]]
                   for r, points in enumerate(snap["series"]["m"].values()))

    def test_drain_returns_count(self):
        def worker(comm):
            if comm.rank != 0:
                push_metrics(comm, 0, {"m": 1.0})
            comm.barrier()
            if comm.rank == 0:
                return drain_pending(comm)
            return 0

        res = run_spmd(worker, 3)
        assert res[0] == 2


class TestTrainingEndToEnd:
    def test_one_push_per_rank_per_epoch(self):
        import numpy as np

        from repro.data import TensorDataset
        from repro.shuffle.partial import PartialLocalShuffle
        from repro.train.trainer import TrainConfig, train_worker

        rng = np.random.default_rng(0)
        X = rng.normal(size=(48, 8)).astype(np.float32)
        y = rng.integers(0, 2, size=48).astype(np.int64)
        config = TrainConfig(
            model="mlp", in_shape=(8,), num_classes=2,
            epochs=2, batch_size=8, seed=0,
        )

        def worker(comm):
            return train_worker(
                comm, config, PartialLocalShuffle(0.5),
                TensorDataset(X, y), y, X[:8], y[:8],
            )

        res = run_spmd(worker, 2)
        snap = res.world.telemetry.snapshot()
        assert snap["pushes"] == 2 * 2  # ranks x epochs
        for metric in ("phase.io_s", "phase.exchange_s", "phase.fw_bw_s",
                       "phase.ge_wu_s", "train.loss", "exchange.q_deficit",
                       "pool.in_use"):
            assert metric in snap["series"], f"missing series {metric}"
            assert set(snap["series"][metric]) == {"0", "1"}
