"""Robustness benchmark: the self-healing rejoin path under chaos.

One measured story: kill a rank mid-exchange, continue degraded, crash the
whole job after the next snapshot, restart from disk, re-admit the dead
rank and rebalance shards back toward ``N/M`` — then verify the healed run
is *bit-identical* to one that executed the same kill/rejoin schedule
without ever crashing.

Reported metrics:

* ``rejoin`` — the rebalance report: samples migrated back, bytes moved,
  cold replicas promoted in place, wall seconds.
* ``ratios.rejoin_speed`` — total run wall over rejoin-rebalance wall
  (self-normalised: compares the healing cost to the work it protects on
  the same machine; gated by an absolute floor rather than a baseline
  ratio because the rebalance wall is milliseconds and noisy).
* ``ratios.migration_share`` — migrated samples over total samples; a
  deterministic property of the plan (the joiner's ``N/M`` share), so a
  cap catches a planner that reshuffles instead of rebalancing.
* ``bit_identical`` / ``capacity_restored`` / ``q_deficit_final`` — the
  absolute gates: healing must be invisible in the final weights, every
  rank back at its ``N/M`` target, no outstanding exchange deficit.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["bench_robustness"]


def bench_robustness(
    *,
    workers: int = 4,
    samples: int = 240,
    classes: int = 4,
    features: int = 16,
    epochs: int = 5,
    q: float = 0.3,
    seed: int = 0,
) -> dict:
    """Run the kill -> crash/restart -> rejoin lifecycle and measure it."""
    import tempfile

    from repro.data import SyntheticSpec
    from repro.elastic import LifecyclePlan, run_lifecycle
    from repro.faults import FaultProfile
    from repro.train.experiments import make_experiment_data
    from repro.train.trainer import TrainConfig

    spec = SyntheticSpec(
        n_samples=samples, n_classes=classes, n_features=features, seed=seed,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    config = TrainConfig(
        model="mlp", in_shape=(features,), num_classes=classes,
        epochs=epochs, batch_size=8, base_lr=0.05,
        partition="class_sorted", seed=seed,
    )
    rejoin_epoch = epochs - 2
    plan = FaultProfile.parse(
        f"kill:rank=1,epoch=1,point=mid_exchange;rejoin:rank=1,epoch={rejoin_epoch};"
        "crash:epoch=2"
    ).lifecycle_plan()
    common = dict(
        config=config, workers=workers, q=q,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
    )

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-bench-lc-") as tmp:
        healed = run_lifecycle(plan=plan, snapshot_dir=tmp, **common)
    healed_wall = time.perf_counter() - t0

    # The reference: same kill/rejoin schedule, no crash/restart (and so
    # no snapshots either).
    reference = run_lifecycle(
        plan=LifecyclePlan(kills=plan.kills, rejoins=plan.rejoins), **common
    )

    bit_identical = set(healed.model_state) == set(reference.model_state) and all(
        np.array_equal(healed.model_state[k], reference.model_state[k])
        for k in healed.model_state
    )
    rejoin = healed.rejoins[-1] if healed.rejoins else {}
    rejoin_wall = max(float(rejoin.get("wall_s", 0.0)), 1e-9)
    moved = int(rejoin.get("moved_gids", 0))
    transitions = healed.event_kinds()
    return {
        "params": {
            "workers": workers, "samples": samples, "epochs": epochs,
            "q": q, "seed": seed, "rejoin_epoch": rejoin_epoch,
        },
        "segments": healed.segments,
        "restarts": healed.restarts,
        "rejoin": dict(rejoin),
        "wall": {"run_s": healed_wall, "rejoin_s": rejoin_wall},
        "ratios": {
            "rejoin_speed": healed_wall / rejoin_wall,
            "migration_share": moved / samples,
        },
        "bit_identical": bool(bit_identical),
        "capacity_restored": bool(healed.capacity_ok),
        "q_deficit_final": float(healed.q_deficit),
        "verified": bool(healed.verified),
        "final_accuracy": float(healed.final_accuracy),
        "transitions": transitions,
    }
