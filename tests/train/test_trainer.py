"""End-to-end distributed training: the paper's core phenomena at toy scale."""

import numpy as np
import pytest

from repro.data import SyntheticSpec
from repro.nn import build_model
from repro.train import (
    EpochRecord,
    RunHistory,
    TrainConfig,
    evaluate,
    run_comparison,
)

SPEC = SyntheticSpec(
    n_samples=768, n_classes=6, n_features=24, intra_modes=4,
    separation=2.4, noise=1.0, seed=11,
)


def config(**kw):
    defaults = dict(model="mlp", epochs=6, batch_size=8, base_lr=0.05, seed=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def skew_result():
    return run_comparison(
        spec=SPEC,
        config=config(partition="class_sorted"),
        workers=6,
        strategies=["global", "local", "partial-0.5"],
    )


class TestTrainingPhenomena:
    def test_global_learns(self, skew_result):
        assert skew_result.best("global") > 0.7

    def test_local_degrades_under_skew(self, skew_result):
        gap = skew_result.best("global") - skew_result.best("local")
        assert gap > 0.15

    def test_partial_recovers(self, skew_result):
        """The paper's headline: a partial exchange restores most of the
        global-shuffling accuracy."""
        ref = skew_result.best("global")
        gap = {name: ref - skew_result.best(name) for name in ("local", "partial-0.5")}
        assert gap["partial-0.5"] < gap["local"] * 0.5

    def test_local_matches_global_random_partition(self):
        """Fig 5(a)-(d): with diverse shards LS ~= GS."""
        res = run_comparison(
            spec=SPEC,
            config=config(partition="random"),
            workers=6,
            strategies=["global", "local"],
        )
        assert abs(res.best("global") - res.best("local")) < 0.1

    def test_histories_well_formed(self, skew_result):
        for name, h in skew_result.histories.items():
            assert len(h.records) == 6
            assert h.workers == 6
            assert all(0.0 <= r.val_accuracy <= 1.0 for r in h.records)
            assert all(r.lr > 0 for r in h.records)
            assert h.stats["name"] == name

    def test_storage_accounting_in_stats(self, skew_result):
        n_train = len(SPEC_train_size())
        per_worker = n_train // 6
        assert skew_result.histories["local"].stats["storage_samples"] <= per_worker + 1
        assert skew_result.histories["global"].stats["storage_samples"] == n_train
        pls = skew_result.histories["partial-0.5"].stats["storage_samples"]
        assert pls <= int(1.5 * (per_worker + 1)) + 1


def SPEC_train_size():
    from repro.train import make_experiment_data

    train_ds, _, _, _ = make_experiment_data(SPEC)
    return train_ds


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            run_comparison(spec=SPEC, config=config(), workers=0, strategies=["local"])


class TestRunHistory:
    def test_monotone_epoch_enforced(self):
        h = RunHistory("local", 2)
        h.add(EpochRecord(0, 1.0, 0.5, 0.1, 100))
        with pytest.raises(ValueError):
            h.add(EpochRecord(0, 1.0, 0.5, 0.1, 100))

    def test_epochs_to_reach(self):
        h = RunHistory("local", 2)
        for e, acc in enumerate([0.3, 0.6, 0.9]):
            h.add(EpochRecord(e, 1.0, acc, 0.1, 100))
        assert h.epochs_to_reach(0.55) == 1
        assert h.epochs_to_reach(0.95) is None
        assert h.best_accuracy == 0.9
        assert h.final_accuracy == 0.9

    def test_empty_history_errors(self):
        h = RunHistory("local", 2)
        with pytest.raises(ValueError):
            _ = h.final_accuracy


class TestEvaluate:
    def test_accuracy_and_loss(self):
        model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0)
        X = np.random.default_rng(0).normal(size=(32, 8)).astype(np.float32)
        y = np.random.default_rng(1).integers(0, 3, 32)
        acc, loss = evaluate(model, X, y, batch_size=8)
        assert 0.0 <= acc <= 1.0
        assert loss > 0

    def test_restores_training_mode(self):
        model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0)
        model.train()
        X = np.zeros((4, 8), dtype=np.float32)
        evaluate(model, X, np.zeros(4, dtype=np.int64))
        assert model.training

    def test_empty_set_rejected(self):
        model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 8)), np.zeros(0, dtype=np.int64))
