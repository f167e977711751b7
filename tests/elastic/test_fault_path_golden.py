"""One fault-tolerant run path, same numbers: goldens from the two it replaced.

``golden_fault_path.json`` was recorded at the parent commit (6f53648),
which still had a second failure-aware worker loop and launcher beside the
lifecycle stack: the kill schedules went through that elastic launcher
(``failures=<spec>``), the chaos profiles through that tree's
``run_chaos_train`` (which forwarded to it), each on both backends where
listed, and :func:`summary` below was applied to what they returned.  The
supervised lifecycle loop is now the only path, so for every case the
history records (floats as ``.hex()``), the recovery reports minus their
wall times, the final worker count and the injected-fault counts must
equal the recording exactly — on ``threads`` and on ``procs``.
"""

import json
from pathlib import Path

import pytest

from repro.data import SyntheticSpec
from repro.elastic import LifecyclePlan, run_lifecycle
from repro.faults import run_chaos_train
from repro.train.experiments import make_experiment_data
from repro.train.trainer import TrainConfig

GOLDEN = Path(__file__).with_name("golden_fault_path.json")
WORKERS = 4

#: ``FailurePlan`` specs: clean, one kill per injection point, two kills.
KILL_SCHEDULES = ["", "1@2:mid_exchange", "2@1:begin", "1@1:end,3@2:mid_exchange"]

#: (profile, chaos seed) — the profiles ``tests/faults/test_chaos_train.py``
#: pins bit-identity and composition with.
CHAOS_CASES = [
    ("corrupt:p=0.01", 1),
    ("drop:p=0.05", 2),
    ("corrupt:p=0.03;kill:rank=1,epoch=2,point=mid_exchange", 5),
]


def make_setup():
    spec = SyntheticSpec(n_samples=240, n_classes=4, n_features=16, seed=0)
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=3, batch_size=8,
        base_lr=0.05, partition="class_sorted", seed=0,
    )
    return dict(
        config=config, workers=WORKERS, q=0.3,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
    )


def summary(history, recoveries, injected=None):
    """What a case must reproduce (timings excluded)."""
    return {
        "history": [
            [r.epoch, r.train_loss.hex(), r.val_accuracy.hex(), r.samples_seen]
            for r in history.records
        ],
        "recoveries": [
            {
                k: v for k, v in rec.items()
                if k not in ("detection_latency_s", "wall_s")
            }
            for rec in recoveries
        ],
        "final_workers": history.stats["final_workers"],
        "injected": dict(sorted((injected or {}).items())),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("backend", ["threads", "procs"])
@pytest.mark.parametrize("kills", KILL_SCHEDULES, ids=lambda k: k or "clean")
def test_kill_schedule_matches_parent_recording(golden, kills, backend):
    result = run_lifecycle(
        plan=LifecyclePlan.parse(kills=kills), backend=backend, **make_setup()
    )
    assert summary(result.history, result.recoveries) == golden["kill"][kills]


@pytest.mark.parametrize("profile,seed", CHAOS_CASES, ids=[p for p, _ in CHAOS_CASES])
def test_chaos_profile_matches_parent_recording(golden, profile, seed):
    result = run_chaos_train(
        profile=profile, seed=seed, resend_timeout_s=0.05, backend="threads",
        **make_setup(),
    )
    assert (
        summary(result.history, result.lifecycle.recoveries, result.injected)
        == golden["chaos"][profile]
    )
