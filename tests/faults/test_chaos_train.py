"""run_lifecycle end-to-end under fault profiles: full PLS training with
transient faults injected, alone and beside kills, rejoins and crashes.

The headline property: every recoverable profile yields a final model
bit-identical to the clean run (tolerance 0), because checksummed resend,
retrying reads and deterministic injection make faults invisible.
"""

import tempfile

import pytest

from repro.data import SyntheticSpec
from repro.elastic import run_lifecycle
from repro.train.experiments import make_experiment_data
from repro.train.trainer import TrainConfig

WORKERS = 4


@pytest.fixture(scope="module")
def setup():
    spec = SyntheticSpec(n_samples=240, n_classes=4, n_features=16, seed=0)
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4,
        epochs=3, batch_size=8, base_lr=0.05,
        partition="class_sorted", seed=0,
    )
    return dict(
        config=config, workers=WORKERS, q=0.3, resend_timeout_s=0.05,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
    )


def history_signature(result):
    return tuple(
        (r.epoch, r.train_loss, r.val_accuracy) for r in result.history.records
    )


class TestBitIdenticalTraining:
    @pytest.fixture(scope="class")
    def clean(self, setup):
        return run_lifecycle(**setup)

    @pytest.fixture(scope="class")
    def clean_on_disk(self, setup):
        # Storage-fault comparisons need the same substrate: materializing
        # to a folder dataset reorders samples by class, so the baseline
        # must be materialized too.
        return run_lifecycle(materialize=True, **setup)

    def test_corrupt_bit_identical(self, setup, clean):
        r = run_lifecycle(profile="corrupt:p=0.01", chaos_seed=1, **setup)
        assert r.injected.get("corrupt", 0) > 0
        assert history_signature(r) == history_signature(clean)
        assert r.unrecovered == 0

    def test_drop_bit_identical(self, setup, clean):
        r = run_lifecycle(profile="drop:p=0.05", chaos_seed=2, **setup)
        assert r.injected.get("drop", 0) > 0
        assert history_signature(r) == history_signature(clean)

    def test_flaky_read_bit_identical(self, setup, clean_on_disk):
        r = run_lifecycle(profile="flaky-read:p=0.05", chaos_seed=3, **setup)
        assert r.injected.get("flaky-read", 0) > 0
        assert r.retry_stats["retries"] > 0
        assert r.unrecovered == 0
        assert history_signature(r) == history_signature(clean_on_disk)

    def test_combined_profile_bit_identical(self, setup, clean_on_disk):
        r = run_lifecycle(
            profile="corrupt:p=0.01;drop:p=0.01;flaky-read:p=0.05",
            chaos_seed=4, **setup,
        )
        assert sum(r.injected.values()) > 0
        assert history_signature(r) == history_signature(clean_on_disk)


#: Counters that follow from (chaos seed, training seed) alone.
SEEDED = ("crc_rejects", "degraded_epochs", "q_deficit", "effective_q")


class TestDeterminism:
    def test_same_chaos_seed_twice(self, setup):
        # At p = 0.02 every fault seed 7 draws lands on a message a rank
        # no longer sends (a self-drawn round stays put); at 0.03 the same
        # seed corrupts one frame and drops five.
        profile = "corrupt:p=0.03;drop:p=0.03"
        r1 = run_lifecycle(profile=profile, chaos_seed=7, **setup)
        r2 = run_lifecycle(profile=profile, chaos_seed=7, **setup)
        assert r1.injected == r2.injected
        assert sum(r1.injected.values()) > 0
        assert history_signature(r1) == history_signature(r2)
        assert {k: r1.fault_stats[k] for k in SEEDED} == {
            k: r2.fault_stats[k] for k in SEEDED
        }
        # A dropped frame is only noticed by a *timeout* NACK, and a slow
        # scheduler pass can time out on a frame that was merely late, so
        # these counters depend on thread scheduling: the injected counts
        # bound them from below, nothing bounds them from above.
        dropped = r1.injected.get("drop", 0)
        corrupted = r1.injected.get("corrupt", 0)
        for r in (r1, r2):
            fs = r.fault_stats
            assert fs["crc_rejects"] == corrupted
            assert fs["timeout_nacks"] >= dropped
            assert fs["resends"] >= dropped + corrupted
            assert fs["resent_bytes"] >= fs["resends"]

    def test_fault_stats_are_world_totals(self, setup):
        """Corruptions that land on several ranks are all counted: each
        rank rejects the frames it received, and ``fault_stats`` sums the
        ranks, so it matches the world-wide injected count."""
        r = run_lifecycle(profile="corrupt:p=0.05", chaos_seed=1, **setup)
        per_rank = [res[0].stats["crc_rejects"] for res in r.results if isinstance(res, tuple)]
        assert sum(n > 0 for n in per_rank) > 1
        assert r.fault_stats["crc_rejects"] == r.injected["corrupt"] == sum(per_rank)

    def test_storage_faults_follow_the_sample_not_the_copy(
        self, setup, tmp_path, monkeypatch
    ):
        # Each run writes its on-disk copy under a fresh directory; the
        # injected read faults must not depend on where it landed.
        runs = []
        for root in ("a", "b"):
            (tmp_path / root).mkdir()
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / root))
            runs.append(
                run_lifecycle(profile="flaky-read:p=0.1", chaos_seed=3, **setup)
            )
        assert runs[0].injected["flaky-read"] > 0
        assert runs[0].injected == runs[1].injected
        assert runs[0].retry_stats == runs[1].retry_stats


class TestScratch:
    def test_on_disk_copy_and_snapshots_are_removed(self, setup, tmp_path, monkeypatch):
        # The launcher's temporary directories (the storage-fault copy of
        # the training set, the snapshots a crash restarts from) are gone
        # when the run returns.
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        r = run_lifecycle(
            profile="flaky-read:p=0.05;crash:epoch=2", chaos_seed=3, **setup
        )
        assert r.injected["flaky-read"] > 0 and r.restarts == 1
        assert list(tmp_path.glob("chaos-*")) == []


#: Every lifecycle clause of the documented grammar in one profile.
HEAL = (
    "kill:rank=1,epoch=1,point=mid_exchange;rejoin:rank=1,epoch=3;crash:epoch=2"
)


class TestElasticComposition:
    @pytest.fixture(scope="class")
    def five_epochs(self, setup):
        from dataclasses import replace

        return {**setup, "config": replace(setup["config"], epochs=5)}

    def test_rejoin_and_crash_clauses_take_effect(self, five_epochs):
        # Every lifecycle clause of the grammar takes effect (a runner
        # that forwards only the kills ends this "4 -> 3 workers" in one
        # segment, without an error).
        run = run_lifecycle(profile=HEAL, **five_epochs)
        assert run.history.stats["final_workers"] == WORKERS
        assert run.dead_ranks == ()
        assert run.segments >= 2 and run.restarts == run.segments - 1
        assert len(run.rejoins) == 1 and run.rejoins[0]["joiners"] == [1]
        # The shrink happened before the crash, so it is in the
        # cross-segment timeline, not in the final segment's reports.
        assert "elastic.recovered" in [e["kind"] for e in run.events]
        assert run.verified

    def test_both_stacks_faults_in_one_run(self, five_epochs):
        r = run_lifecycle(
            profile=HEAL + ";corrupt:p=0.02", chaos_seed=3, **five_epochs
        )
        assert r.injected.get("corrupt", 0) > 0
        assert r.final_workers == WORKERS
        assert len(r.rejoins) == 1
        assert r.verified

    def test_kill_plus_transient(self, setup):
        # One profile drives both recovery stacks: rank 1 fail-stops at
        # epoch 2 (elastic shrinks + recovers its shard) while corruption
        # keeps hitting the survivors' exchange.
        r = run_lifecycle(
            profile="corrupt:p=0.03;kill:rank=1,epoch=2,point=mid_exchange",
            chaos_seed=5, **setup,
        )
        assert r.dead_ranks == (1,)
        assert len(r.recoveries) == 1
        assert r.injected.get("corrupt", 0) > 0
        assert r.history.stats.get("final_workers") == WORKERS - 1
        assert r.final_accuracy > 0.5

    def test_no_join_transfer_reaches_a_joiner_before_its_state_is_installed(
        self, setup, monkeypatch
    ):
        # The JOIN handshake has no barrier: program order alone keeps the
        # rebalance transfers behind the joiner's state install.  Delayed
        # and duplicated JOIN messages plus a slow install would expose a
        # transfer posted early.
        import time

        from repro.elastic.lifecycle import _LifecycleRank
        from repro.mpi.communicator import Communicator
        from repro.mpi.tags import RECOVERY
        from repro.mpi.world import World

        events = []
        deliver, restore = World._deliver, _LifecycleRank._restore_job

        def deliver_logged(world, msg):
            tag = msg.tag % Communicator.MAX_TAG
            if RECOVERY.contains(tag):
                events.append(("transfer", msg.dest))
            deliver(world, msg)

        def restore_slowly(rank, comm, record):
            time.sleep(0.2)
            restore(rank, comm, record)
            events.append(("installed", rank.me))

        monkeypatch.setattr(World, "_deliver", deliver_logged)
        monkeypatch.setattr(_LifecycleRank, "_restore_job", restore_slowly)
        r = run_lifecycle(
            profile="kill:rank=1,epoch=1,point=end;rejoin:rank=1,epoch=2;"
            "delay:p=1,ms=50@control;dup:p=0.5@control",
            backend="threads", **setup,
        )
        assert r.verified and len(r.rejoins) == 1
        installed = events.index(("installed", 1))
        assert ("transfer", 1) in events[installed:]
        assert ("transfer", 1) not in events[:installed]

    def test_profile_object_accepted(self, setup):
        from repro.faults import FaultProfile

        prof = FaultProfile.parse("corrupt:p=0.01")
        by_object = run_lifecycle(profile=prof, chaos_seed=1, **setup)
        by_spec = run_lifecycle(profile="corrupt:p=0.01", chaos_seed=1, **setup)
        assert by_object.injected == by_spec.injected
        assert by_object.injected.get("corrupt", 0) > 0
