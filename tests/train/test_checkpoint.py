"""The replica-state pair (what every job record carries for model and
optimizer) and the default RNG stream's round trip through a job snapshot."""

import numpy as np
import pytest

from repro.data import SyntheticSpec
from repro.elastic import run_lifecycle
from repro.nn import SGD, Tensor, build_model
from repro.nn import functional as F
from repro.train import EpochRecord, RunHistory, TrainConfig, make_experiment_data
from repro.train.checkpoint import (
    _JOB_KEYS,
    replica_state,
    restore_replica_state,
    save_job_snapshot,
)
from repro.utils import rng as rng_mod
from repro.utils.rng import default_rng


def make_run(seed=0):
    model = build_model("mlp", in_shape=(8,), num_classes=3, seed=seed)
    # The trainer's layout: momentum buffers are views of one flat array.
    opt = SGD(model.flatten(), lr=0.1, momentum=0.9)
    return model, opt


def one_step(model, opt, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(16, 8)).astype(np.float32)
    y = rng.integers(0, 3, 16)
    loss = F.cross_entropy(model(Tensor(X)), y)
    model.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.item())


class TestRoundtrip:
    def test_model_state_restored(self):
        model, opt = make_run()
        one_step(model, opt)
        state = replica_state(model, opt)

        model2, opt2 = make_run(seed=99)  # different init
        assert restore_replica_state(state, model2, opt2) is None
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
            assert np.array_equal(p1.data, p2.data), n1
        for v1, v2 in zip(opt._velocity, opt2._velocity):
            assert np.array_equal(v1, v2)

    def test_momentum_is_written_through_the_flat_buffers(self):
        model, opt = make_run()
        one_step(model, opt)
        state = replica_state(model, opt)
        model2, opt2 = make_run()
        buffers = list(opt2._velocity)
        restore_replica_state(state, model2, opt2)
        # Same buffer objects, so the flat array the update walks moved too.
        assert all(a is b for a, b in zip(buffers, opt2._velocity))
        (_, flat), = opt2._groups
        assert np.array_equal(flat, np.concatenate([v.ravel() for v in opt._velocity]))

    def test_state_is_a_copy(self):
        model, opt = make_run()
        one_step(model, opt)
        state = replica_state(model, opt)
        one_step(model, opt, seed=2)  # training on does not reach the copy
        model2, opt2 = make_run()
        restore_replica_state(state, model2, opt2)
        model3, opt3 = make_run()
        one_step(model3, opt3)
        for (n, p2), (_, p3) in zip(model2.named_parameters(), model3.named_parameters()):
            assert np.array_equal(p2.data, p3.data), n

    def test_resumed_training_bitwise_matches_uninterrupted(self):
        """The restart guarantee: copy after step 1, restore into a fresh
        model, continue — must match the uninterrupted run exactly
        (including momentum state)."""
        m_ref, o_ref = make_run()
        one_step(m_ref, o_ref, seed=1)
        one_step(m_ref, o_ref, seed=2)

        m_a, o_a = make_run()
        one_step(m_a, o_a, seed=1)
        state = replica_state(m_a, o_a)
        m_b, o_b = make_run(seed=50)
        restore_replica_state(state, m_b, o_b)
        one_step(m_b, o_b, seed=2)

        for (n, p_ref), (_, p_b) in zip(m_ref.named_parameters(), m_b.named_parameters()):
            assert np.array_equal(p_ref.data, p_b.data), n

    def test_history_roundtrip(self):
        model, opt = make_run()
        hist = RunHistory("partial-0.3", 8)
        hist.add(EpochRecord(0, 1.5, 0.4, 0.1, 100))
        hist.add(EpochRecord(1, 1.1, 0.6, 0.1, 100))
        hist.stats = {"sent_samples": 42}
        restored = restore_replica_state(replica_state(model, opt, hist), model, opt)
        assert restored.strategy == "partial-0.3"
        assert restored.records == hist.records
        assert restored.best_accuracy == 0.6
        assert restored.stats == {"sent_samples": 42}

    def test_lr_restored(self):
        model, opt = make_run()
        opt.lr = 0.007
        model2, opt2 = make_run()
        restore_replica_state(replica_state(model, opt), model2, opt2)
        assert opt2.lr == 0.007


class TestErrors:
    def test_param_count_mismatch(self):
        model, opt = make_run()
        state = replica_state(model, opt)
        other = build_model("mlp_wide", in_shape=(8,), num_classes=3, seed=0)
        other_opt = SGD(other.parameters()[:2], lr=0.1, momentum=0.9)
        with pytest.raises(ValueError, match="velocity"):
            restore_replica_state(state, other, other_opt)

    def test_no_tmp_left_behind(self, tmp_path):
        model, opt = make_run()
        payload = dict.fromkeys(_JOB_KEYS)
        payload.update(epoch=0, **replica_state(model, opt))
        save_job_snapshot(tmp_path, payload)
        assert not list(tmp_path.glob("*.tmp"))


def run_job(snapshot_dir):
    """Train 2 epochs into ``snapshot_dir``, or resume the snapshot it holds."""
    spec = SyntheticSpec(n_samples=64, n_classes=4, n_features=8, seed=2)
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    config = TrainConfig(
        model="mlp", in_shape=(8,), num_classes=4, epochs=2, batch_size=8,
        partition="class_sorted", seed=7,
    )
    return run_lifecycle(
        config=config, workers=2, q=0.5, snapshot_dir=snapshot_dir,
        train_dataset=train_ds, labels=labels,
        val_X=val_X, val_y=val_y,
    )


class TestDefaultRngRoundtrip:
    """The default-stream RNG state survives a save -> crash -> resume
    cycle, so post-resume draws are bit-identical to the draws an
    uninterrupted run would have made."""

    @pytest.fixture(autouse=True)
    def _fresh_stream(self, monkeypatch):
        monkeypatch.setattr(rng_mod, "_default_generator", None)

    def test_save_crash_load_replays_exact_draws(self, tmp_path, monkeypatch):
        default_rng().normal(size=7)  # advance to an arbitrary position
        run_job(tmp_path)  # snapshots the stream after every epoch
        expected = default_rng().normal(size=5)  # what the clean run draws next

        # "Crash": the process restarts, the stream is back at its origin
        # and wanders off somewhere else entirely.
        monkeypatch.setattr(rng_mod, "_default_generator", None)
        default_rng().normal(size=123)

        run_job(tmp_path)  # resumes: splices the stream back, trains nothing
        assert np.array_equal(default_rng().normal(size=5), expected)

    def test_restore_asserts_seed_tree_position(self, tmp_path, monkeypatch):
        run_job(tmp_path)
        # A process rooted at a different seed must refuse the splice: the
        # snapshotted position is meaningless in an unrelated stream.
        monkeypatch.setattr(rng_mod, "DEFAULT_ROOT_SEED", 42)
        monkeypatch.setattr(rng_mod, "_default_generator", None)
        with pytest.raises(ValueError, match="rooted at seed"):
            run_job(tmp_path)
