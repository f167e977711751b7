"""Elastic training end-to-end: kill a rank mid-run, finish with zero loss.

The degrade half of the one fault-tolerant run path
(:func:`repro.elastic.run_lifecycle` with a kill-only schedule and no
snapshot directory); rejoin, crash/restart and resume are in
``test_lifecycle.py`` and ``test_lifecycle_resume.py``.
"""

import pytest

from repro.data import SyntheticSpec
from repro.elastic import LifecycleResult, run_lifecycle
from repro.faults import FaultProfile
from repro.mpi import RankDied
from repro.train.checkpoint import latest_complete_snapshot, load_job_snapshot
from repro.train.experiments import make_experiment_data
from repro.train.trainer import TrainConfig


def make_setup(samples=240, classes=4, features=16, seed=0, epochs=4):
    spec = SyntheticSpec(samples, classes, n_features=features, seed=seed)
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    config = TrainConfig(
        model="mlp", in_shape=(features,), num_classes=classes,
        epochs=epochs, batch_size=8, base_lr=0.05,
        partition="class_sorted", seed=seed,
    )
    return config, train_ds, labels, val_X, val_y


class TestFailurePlan:
    """The kill clauses of a :class:`~repro.faults.FaultProfile`, checked
    when it is parsed."""

    def test_parse(self):
        prof = FaultProfile.parse(
            "kill:rank=1,epoch=2;kill:rank=3,epoch=5,point=mid_exchange"
        )
        assert prof.dead_forever() == (1, 3)
        assert prof.kills[1] == (3, 5, "mid_exchange")

    def test_parse_empty(self):
        assert FaultProfile.parse("").kills == ()

    def test_duplicate_rank_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            FaultProfile.parse("kill:rank=1,epoch=2;kill:rank=1,epoch=3")

    def test_bad_point_rejected(self):
        with pytest.raises(ValueError, match="point"):
            FaultProfile.parse("kill:rank=0,epoch=0,point=whenever")

    def test_negative_rank_or_epoch_rejected(self):
        for spec in ("kill:rank=-1,epoch=0", "kill:rank=0,epoch=-1"):
            with pytest.raises(ValueError, match=">= 0"):
                FaultProfile.parse(spec)

    def test_check_raises_only_at_its_point(self):
        prof = FaultProfile.parse("kill:rank=2,epoch=1,point=mid_exchange")
        prof.check(2, 1, "begin")
        prof.check(1, 1, "mid_exchange")
        prof.check(2, 0, "mid_exchange")
        with pytest.raises(RankDied):
            prof.check(2, 1, "mid_exchange")


class TestElasticRun:
    def test_run_completes_after_failure(self):
        config, train_ds, labels, val_X, val_y = make_setup()
        result = run_lifecycle(
            config=config, workers=4, q=0.3, profile="kill:rank=1,epoch=2",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        assert isinstance(result, LifecycleResult)
        assert result.dead_ranks == (1,)
        assert isinstance(result.results[1], RankDied)
        assert len(result.history.records) == config.epochs
        assert result.final_workers == 3
        assert result.segments == 1
        assert len(result.recoveries) == 1
        rec = result.recoveries[0]
        assert rec["epoch"] == 2 and rec["dead_ranks"] == [1]
        assert rec["lost_gids"] > 0
        assert 0.0 <= result.final_accuracy <= 1.0

    @pytest.mark.parametrize("point", ["begin", "mid_exchange", "end"])
    def test_all_injection_points_recover(self, point):
        config, train_ds, labels, val_X, val_y = make_setup(epochs=3)
        result = run_lifecycle(
            config=config, workers=3, q=0.25,
            profile=f"kill:rank=2,epoch=1,point={point}",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        assert result.dead_ranks == (2,)
        assert len(result.history.records) == config.epochs
        assert result.final_workers == 2
        assert result.verified

    def test_zero_sample_loss_across_survivors(self, tmp_path):
        config, train_ds, labels, val_X, val_y = make_setup()
        result = run_lifecycle(
            config=config, workers=4, q=0.3,
            profile="kill:rank=1,epoch=2,point=mid_exchange",
            snapshot_dir=tmp_path,
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        assert result.final_group == (0, 2, 3)
        # What every survivor held hot when the last epoch ended, as each
        # rank reported it into the job snapshot.
        final = load_job_snapshot(latest_complete_snapshot(tmp_path))
        assert final["epoch"] == config.epochs - 1
        assert sorted(final["manifests"]) == [0, 2, 3]
        held = sorted(
            g for manifest in final["manifests"].values() for g in manifest["hot"]
        )
        # Every training sample exactly once across survivors: zero loss.
        assert held == list(range(len(train_ds)))

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_bystander_survivor_leaves_the_exchange(self, backend):
        """At 120 samples some survivor's frames of epoch 2 involve no dead
        rank.  It must still leave the exchange when rank 3 dies — the peers
        it waits on have raised PeerFailure and sit in shrink() — or the run
        ends in the world deadline (most runs did, before any dead member
        of the communicator ended the epoch).  Timing-dependent, so
        repeated; a regression costs one short deadline, not 300 s."""
        config, train_ds, labels, val_X, val_y = make_setup(samples=120, epochs=3)
        for _ in range(8):
            result = run_lifecycle(
                config=config, workers=4, q=0.3,
                profile="kill:rank=1,epoch=1,point=end;kill:rank=3,epoch=2,point=mid_exchange",
                deadline_s=10, backend=backend,
                train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
            )
            assert result.dead_ranks == (1, 3)
            assert result.final_workers == 2
            assert len(result.history.records) == config.epochs
            assert result.verified

    def test_accuracy_within_noise_of_clean_run(self):
        config, train_ds, labels, val_X, val_y = make_setup(
            samples=320, epochs=5
        )
        kwargs = dict(
            config=config, workers=4, q=0.3,
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        failed = run_lifecycle(profile="kill:rank=1,epoch=2", **kwargs)
        clean = run_lifecycle(**kwargs)
        assert clean.dead_ranks == ()
        delta = abs(failed.final_accuracy - clean.final_accuracy)
        assert delta <= 0.2, (
            f"accuracy after failure diverged: {failed.final_accuracy:.3f} "
            f"vs clean {clean.final_accuracy:.3f}"
        )
