"""``run_lifecycle(snapshot_dir=...)``: a directory holding a complete
snapshot restarts the dead job it came from.

The job snapshot is the one resume path: an interrupted run resumed from
disk must end with the weights of a run that was never interrupted, and a
snapshot of a different job must be refused rather than re-dealt (the
default RNG stream's round trip is in ``tests/train/test_checkpoint.py``).
"""

import numpy as np
import pytest

from repro.data import SyntheticSpec
from repro.elastic import run_lifecycle
from repro.train.checkpoint import CheckpointError, latest_complete_snapshot
from repro.train.experiments import make_experiment_data
from repro.train.trainer import TrainConfig

SPEC = SyntheticSpec(n_samples=128, n_classes=4, n_features=16, seed=2)


def run(epochs, workers=2, seed=7, **kwargs):
    train_ds, labels, val_X, val_y = make_experiment_data(SPEC)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=epochs,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=seed,
    )
    return run_lifecycle(
        config=config, workers=workers, q=0.5,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        **kwargs,
    )


def assert_same_weights(a, b):
    assert set(a.model_state) == set(b.model_state)
    for key in a.model_state:
        assert np.array_equal(a.model_state[key], b.model_state[key]), key


@pytest.fixture(scope="module")
def reference():
    return run(epochs=4)


class TestResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path, reference):
        """Run 2 of 4 epochs into a directory, resume to 4."""
        run(epochs=2, snapshot_dir=tmp_path)
        resumed = run(epochs=4, snapshot_dir=tmp_path)
        assert resumed.segments == 1
        assert resumed.events[0]["kind"] == "lifecycle.restart"
        assert [r.epoch for r in resumed.history.records] == [0, 1, 2, 3]
        assert resumed.history.records == reference.history.records
        assert_same_weights(resumed, reference)

    def test_torn_snapshot_is_skipped(self, tmp_path, reference):
        """A ``snap-<e>.ckpt`` without its ``.ok`` marker is a crash between
        the two phases of the commit: resume goes back one epoch further."""
        run(epochs=3, snapshot_dir=tmp_path)
        (tmp_path / "snap-2.ok").unlink()
        (tmp_path / "snap-2.ckpt").write_bytes(b"torn")
        assert latest_complete_snapshot(tmp_path).name == "snap-1.ckpt"
        resumed = run(epochs=4, snapshot_dir=tmp_path)
        assert_same_weights(resumed, reference)

    def test_resume_past_the_end_trains_nothing(self, tmp_path, reference):
        run(epochs=4, snapshot_dir=tmp_path)
        again = run(epochs=4, snapshot_dir=tmp_path)
        assert "lifecycle.checkpoint" not in [e["kind"] for e in again.events]
        assert_same_weights(again, reference)

    def test_resume_needs_a_complete_snapshot(self, tmp_path, reference):
        """A directory holding only a torn snapshot is not resumed: the
        run starts at epoch 0."""
        (tmp_path / "snap-0.ckpt").write_bytes(b"torn")
        fresh = run(epochs=4, snapshot_dir=tmp_path)
        assert "lifecycle.restart" not in [e["kind"] for e in fresh.events]
        assert fresh.history.records == reference.history.records
        assert_same_weights(fresh, reference)


class TestForeignSnapshot:
    def test_another_worker_count_is_refused(self, tmp_path):
        """Resuming 4 workers' snapshot on 3 used to re-deal the shards of
        ranks 0-2 only: a quarter of the training set silently gone, and
        the run still reported verified."""
        run(epochs=2, workers=4, snapshot_dir=tmp_path)
        with pytest.raises(CheckpointError, match="total_workers=4.*total_workers=3"):
            run(epochs=4, workers=3, snapshot_dir=tmp_path)

    def test_another_seed_is_refused(self, tmp_path):
        run(epochs=2, snapshot_dir=tmp_path)
        with pytest.raises(CheckpointError, match="seed=7.*seed=8"):
            run(epochs=4, seed=8, snapshot_dir=tmp_path)

