"""Cross-rank telemetry aggregation: ingestion and the push wire.

Covers the aggregator in isolation (its per-rank series) and the live
path: every rank pushes over the communicator on the dedicated tag, rank 0
drains, and the folded series land on ``world.telemetry`` without a single
collective.
"""

import json
import math

from repro.mpi import run_spmd
from repro.obs.telemetry import (
    TELEMETRY_TAG,
    TelemetryAggregator,
    drain_pending,
    push_metrics,
)


class TestAggregator:
    def test_series_keyed_by_metric_then_rank(self):
        agg = TelemetryAggregator()
        agg.ingest(0, 0, {"loss": 1.0, "busy": 0.5})
        agg.ingest(1, 0, {"loss": 2.0})
        agg.ingest(0, 1, {"loss": 0.5})
        snap = agg.snapshot()
        assert snap["pushes"] == 3
        assert snap["ranks"] == [0, 1]
        assert snap["series"]["loss"]["0"] == [[0, 1.0], [1, 0.5]]
        assert snap["series"]["loss"]["1"] == [[0, 2.0]]

    def test_nan_values_skipped(self):
        agg = TelemetryAggregator()
        agg.ingest(0, 0, {"bad": math.nan, "good": 1.0})
        snap = agg.snapshot()
        assert "bad" not in snap["series"]
        assert "good" in snap["series"]

    def test_snapshot_is_json_serializable(self):
        agg = TelemetryAggregator()
        agg.ingest(2, 0, {"v": 1.25})
        json.dumps(agg.snapshot())


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
        assert snap["series"]["m"] == {
            str(r): [[7, float(r)]] for r in range(4)
        }

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
