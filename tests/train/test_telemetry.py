"""Measured phase breakdown: what every ``train_worker`` run records."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, TensorDataset, make_classification
from repro.mpi import run_spmd
from repro.shuffle import strategy_from_name
from repro.train import TrainConfig, train_worker

PHASES = ("io", "exchange", "fw_bw", "ge_wu")


@pytest.fixture(scope="module")
def problem():
    X, y = make_classification(SyntheticSpec(256, 4, n_features=16, seed=1))
    return TensorDataset(X, y), y, X[:32], y[:32]


def train(name, problem, workers=2, **kwargs):
    """An ordinary two-epoch run; the launch result."""
    ds, y, val_X, val_y = problem
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=2, batch_size=8
    )

    def worker(comm):
        return train_worker(
            comm, config, strategy_from_name(name), ds, y, val_X, val_y
        )

    return run_spmd(worker, workers, deadline_s=300, **kwargs)


def measure(name, problem, workers=2):
    """Seconds per phase of an ordinary two-epoch run, per rank: the
    ``phase.*_s`` series its ranks pushed, summed over the epochs."""
    series = train(name, problem, workers).world.telemetry.snapshot()["series"]
    return {
        phase: [
            sum(v for _seq, v in series[f"phase.{phase}_s"][str(rank)])
            for rank in range(workers)
        ]
        for phase in PHASES
    }


class TestMeasurePhaseBreakdown:
    def test_all_phases_recorded(self, problem):
        r = measure("partial-0.5", problem)
        for rank in range(2):
            assert r["fw_bw"][rank] > 0
            assert r["ge_wu"][rank] > 0
            assert r["io"][rank] >= 0
            assert r["exchange"][rank] > 0

    def test_local_has_no_exchange(self, problem):
        # Counted, not timed: no rank plans an exchange, posts a frame (no
        # exchange buffer is ever taken) or records a per-frame event.
        world = train("local", problem, tracing=True).world
        kinds = {kind for rec in world.flight.recorders for _ts, _dur, kind, _f in rec}
        assert "coll.allreduce" in kinds  # the stream was recorded
        assert not {k for k in kinds if k == "exchange.plan" or k.startswith("round.")}
        assert world.pool.stats()["acquires"] == 0

    def test_exchange_grows_with_q(self, problem):
        lo = measure("partial-0.1", problem)
        hi = measure("partial-0.9", problem)
        assert np.mean(hi["exchange"]) > np.mean(lo["exchange"])
