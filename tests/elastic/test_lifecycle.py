"""The self-healing lifecycle: rejoin, crash-restart, supervised recovery.

The expensive end-to-end pair (a killed/crashed/restarted/rejoined run and
its no-crash reference) runs once per module; everything downstream
asserts against those two results.  The schedule deliberately rejoins at
the *restart* epoch — the corner where restored storage must reproduce
the live hot/cold dual-state semantics bit-for-bit (the `add_cold`
regression this suite pins down).
"""

import numpy as np
import pytest

from repro.data import SyntheticSpec
from repro.elastic import LifecyclePlan, run_lifecycle
from repro.elastic.lifecycle import Crashed
from repro.faults import FaultProfile
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


class TestLifecyclePlan:
    def test_parse_full_schedule(self):
        plan = LifecyclePlan.parse(
            kills="1@1:mid_exchange", rejoins="1@3", restart_after="1"
        )
        assert plan.kills.doomed() == (1,)
        assert plan.rejoins == ((1, 3),)
        assert plan.crashes == (2,)
        assert plan.joiners_at(3) == (1,)
        assert plan.joiners_at(2) == ()
        assert plan.rejoin_epoch(1) == 3
        assert plan.rejoin_epoch(0) is None
        assert plan.dead_forever() == ()
        assert plan.max_epoch() == 3

    def test_empty_plan_has_no_events(self):
        for plan in (LifecyclePlan(), LifecyclePlan.parse("", "", "")):
            assert (plan.kills.events, plan.rejoins, plan.crashes) == ((), (), ())

    def test_rejoin_without_kill_rejected(self):
        with pytest.raises(ValueError, match="rejoin"):
            LifecyclePlan.parse(kills="", rejoins="1@3", restart_after="")

    def test_rejoin_not_after_kill_rejected(self):
        with pytest.raises(ValueError):
            LifecyclePlan.parse(
                kills="1@2:mid_exchange", rejoins="1@2", restart_after=""
            )

    def test_duplicate_rejoin_rank_rejected(self):
        with pytest.raises(ValueError):
            LifecyclePlan.parse(
                kills="1@1", rejoins="1@2,1@3", restart_after=""
            )

    def test_crash_needs_a_prior_snapshot_epoch(self):
        # restart_after=e crashes before epoch e+1; "-1" would put the
        # crash at epoch 0, where no snapshot exists yet.
        with pytest.raises(ValueError):
            LifecyclePlan(crashes=(0,))

    def test_dead_forever_is_kills_minus_rejoins(self):
        plan = LifecyclePlan.parse(
            kills="1@1,2@2", rejoins="1@3", restart_after=""
        )
        assert plan.dead_forever() == (2,)

    def test_from_chaos_profile(self):
        profile = FaultProfile.parse(
            "kill:rank=1,epoch=1,point=mid_exchange;"
            "rejoin:rank=1,epoch=3;crash:epoch=2"
        )
        plan = profile.lifecycle_plan()
        assert plan.rejoins == ((1, 3),)
        assert plan.crashes == (2,)
        assert plan.kills.doomed() == (1,)



@pytest.fixture(scope="module")
def healed_and_clean(tmp_path_factory):
    """One kill -> crash -> restart -> rejoin run plus its no-crash twin."""
    config, train_ds, labels, val_X, val_y = make_setup(
        samples=120, epochs=4
    )
    common = dict(
        config=config, workers=3, q=0.3,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
    )
    plan = LifecyclePlan.parse(
        kills="1@1:mid_exchange", rejoins="1@2", restart_after="1"
    )
    healed = run_lifecycle(
        plan=plan, snapshot_dir=tmp_path_factory.mktemp("healed"), **common
    )
    clean = run_lifecycle(
        plan=LifecyclePlan(kills=plan.kills, rejoins=plan.rejoins),
        snapshot_dir=tmp_path_factory.mktemp("clean"),
        **common,
    )
    return healed, clean


class TestEndToEnd:
    def test_final_weights_bit_identical_to_no_crash_run(
        self, healed_and_clean
    ):
        healed, clean = healed_and_clean
        assert set(healed.model_state) == set(clean.model_state)
        for key in healed.model_state:
            assert np.array_equal(
                healed.model_state[key], clean.model_state[key]
            ), f"weights diverged at {key}"

    def test_history_identical_to_no_crash_run(self, healed_and_clean):
        healed, clean = healed_and_clean
        assert len(healed.history.records) == len(clean.history.records)
        for h, c in zip(healed.history.records, clean.history.records):
            assert h.epoch == c.epoch
            assert h.train_loss == c.train_loss
            assert h.val_accuracy == c.val_accuracy

    def test_supervisor_verified_the_healed_state(self, healed_and_clean):
        healed, clean = healed_and_clean
        assert healed.verified and clean.verified
        assert healed.capacity_ok
        assert healed.q_deficit == 0
        assert healed.final_workers == 3
        assert healed.final_group == (0, 1, 2)
        assert healed.dead_ranks == ()

    def test_segments_and_restarts(self, healed_and_clean):
        healed, clean = healed_and_clean
        assert healed.segments == 2
        assert healed.restarts == 1
        assert clean.segments == 1
        assert clean.restarts == 0

    def test_rejoin_rebalance_restored_the_share(self, healed_and_clean):
        healed, _ = healed_and_clean
        assert len(healed.rejoins) == 1
        report = healed.rejoins[0]
        assert report["joiners"] == [1]
        assert report["moved_gids"] > 0
        assert report["epoch"] == 2

    def test_transition_sequence_is_ordered(self, healed_and_clean):
        healed, clean = healed_and_clean
        kinds = healed.event_kinds()
        # The supervised story in order: checkpoint, death, recovery,
        # crash, restart, admission, rebalance, verification.
        for earlier, later in [
            ("lifecycle.checkpoint", "rank.died"),
            ("rank.died", "elastic.failure_detected"),
            ("elastic.failure_detected", "elastic.recovered"),
            ("elastic.recovered", "lifecycle.crash"),
            ("lifecycle.crash", "lifecycle.restart"),
            ("lifecycle.restart", "lifecycle.admitted"),
            ("lifecycle.admitted", "lifecycle.rebalanced"),
            ("lifecycle.rebalanced", "lifecycle.verified"),
        ]:
            assert kinds.index(earlier) < kinds.index(later), (
                f"{earlier} not before {later}: {kinds}"
            )
        assert kinds[-1] == "lifecycle.verified"
        assert "lifecycle.crash" not in clean.event_kinds()
        assert "lifecycle.restart" not in clean.event_kinds()

    def test_rejoin_requested_recorded_before_admission(
        self, healed_and_clean
    ):
        healed, _ = healed_and_clean
        kinds = healed.event_kinds()
        assert kinds.index("lifecycle.rejoin_requested") < kinds.index(
            "lifecycle.admitted"
        )


class TestDegradedFinish:
    def test_kill_without_rejoin_finishes_degraded_but_verified(
        self, tmp_path
    ):
        config, train_ds, labels, val_X, val_y = make_setup(
            samples=96, epochs=3
        )
        result = run_lifecycle(
            config=config, workers=3, q=0.3,
            plan=LifecyclePlan.parse(
                kills="1@1:mid_exchange", rejoins="", restart_after=""
            ),
            snapshot_dir=tmp_path,
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        assert result.verified
        assert result.final_workers == 2
        assert result.dead_ranks == (1,)
        assert "lifecycle.admitted" not in result.event_kinds()


class TestCrashOnly:
    def test_restart_alone_replays_to_bit_identity(self, tmp_path):
        config, train_ds, labels, val_X, val_y = make_setup(
            samples=96, epochs=3
        )
        common = dict(
            config=config, workers=2, q=0.3,
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        crashed = run_lifecycle(
            plan=LifecyclePlan.parse(kills="", rejoins="", restart_after="1"),
            snapshot_dir=tmp_path / "crashed", **common,
        )
        plain = run_lifecycle(snapshot_dir=tmp_path / "plain", **common)
        assert crashed.segments == 2
        assert plain.segments == 1
        for key in plain.model_state:
            assert np.array_equal(
                crashed.model_state[key], plain.model_state[key]
            ), f"weights diverged at {key}"


class TestSupervisorValidation:
    def test_plan_beyond_the_run_is_rejected(self, tmp_path):
        config, train_ds, labels, val_X, val_y = make_setup(epochs=3)
        with pytest.raises(ValueError, match="epoch"):
            run_lifecycle(
                config=config, workers=3,
                plan=LifecyclePlan.parse(
                    kills="1@1", rejoins="1@3", restart_after=""
                ),
                snapshot_dir=tmp_path,
                train_dataset=train_ds, labels=labels,
                val_X=val_X, val_y=val_y,
            )

    def test_crashed_sentinel_shape(self):
        c = Crashed(epoch=2, rank=0)
        assert c.epoch == 2 and c.rank == 0
