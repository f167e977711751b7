"""Robustness benchmark: the self-healing rejoin path under chaos.

One measured story: kill a rank mid-exchange, continue degraded, crash the
whole job after the next snapshot, restart from disk, re-admit the dead
rank and rebalance shards back toward ``N/M`` — then verify the healed run
is *bit-identical* to one that executed the same kill/rejoin schedule
without ever crashing.

Reported metrics, all counts or flags:

* ``rejoin`` — the rebalance report: samples migrated back, bytes moved,
  cold replicas promoted in place.
* ``ratios.migration_share`` — migrated samples over total samples; a
  deterministic property of the plan (the joiner's ``N/M`` share), so a
  cap catches a planner that reshuffles instead of rebalancing.
* ``bit_identical`` / ``capacity_restored`` / ``q_deficit_final`` — the
  absolute gates: healing must be invisible in the final weights, every
  rank back at its ``N/M`` target, no outstanding exchange deficit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bench_robustness"]


def bench_robustness(
    *, workers: int, samples: int, classes: int, features: int, epochs: int,
    q: float, seed: int,
) -> dict:
    """Run the kill -> crash/restart -> rejoin lifecycle and measure it."""
    from repro.data import SyntheticSpec
    from repro.elastic import run_lifecycle
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
    schedule = (
        f"kill:rank=1,epoch=1,point=mid_exchange;rejoin:rank=1,epoch={rejoin_epoch}"
    )
    common = dict(
        config=config, workers=workers, q=q,
        train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
    )
    # The crash restarts from a temporary snapshot directory.
    healed = run_lifecycle(profile=schedule + ";crash:epoch=2", **common)
    # The reference: same kill/rejoin schedule, no crash/restart (and so
    # no snapshots either).
    reference = run_lifecycle(profile=schedule, **common)

    bit_identical = set(healed.model_state) == set(reference.model_state) and all(
        np.array_equal(healed.model_state[k], reference.model_state[k])
        for k in healed.model_state
    )
    rejoin = dict(healed.rejoins[-1]) if healed.rejoins else {}
    rejoin.pop("wall_s", None)  # the artifact holds counts only
    moved = int(rejoin.get("moved_gids", 0))
    transitions = healed.event_kinds()
    return {
        "params": {
            "workers": workers, "samples": samples, "epochs": epochs,
            "q": q, "seed": seed, "rejoin_epoch": rejoin_epoch,
        },
        "segments": healed.segments,
        "restarts": healed.restarts,
        "rejoin": rejoin,
        "ratios": {"migration_share": moved / samples},
        "bit_identical": bool(bit_identical),
        "capacity_restored": bool(healed.capacity_ok),
        "q_deficit_final": float(healed.q_deficit),
        "verified": bool(healed.verified),
        "final_accuracy": float(healed.final_accuracy),
        "transitions": transitions,
    }
