"""Telemetry overhead benchmark: what does always-on cost?

Runs the same small PLS training job three times — always-on layer fully
disabled (``run_spmd(flight=False)``), flight-recorder-only (the shipping
default), and full tracing — and reports each mode's epoch wall-clock as a
self-normalised ratio over the disabled baseline.  One untimed warm-up run
absorbs import and allocator cold-start, then the modes are interleaved
round-robin (disabled, flight, tracing, disabled, ...) so slow machine
drift lands on every mode equally, and min-of-repeats per mode filters
scheduler noise — the same discipline as the exchange benchmark, tightened
because this gate defends a 5 % budget rather than a 2x floor.

The number that matters is ``ratios["flight_overhead"]``: the flight
recorder + telemetry push must stay within
:data:`FLIGHT_OVERHEAD_BUDGET` (≤5 % over disabled), which the
``repro bench`` gate (run by the CI ``bench-smoke`` job) enforces.
Full tracing has no budget — it is opt-in precisely because it is allowed
to cost more.

The run also proves the always-on layer is *inert*: the final training
loss must be bit-identical across all three modes (telemetry that changes
the model is a bug, not an overhead).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.data import TensorDataset
from repro.mpi import run_spmd
from repro.shuffle.partial import PartialLocalShuffle
from repro.train.trainer import TrainConfig, train_worker

__all__ = ["bench_telemetry", "FLIGHT_OVERHEAD_BUDGET"]

#: CI budget: flight-recorder-only epoch time over fully-disabled epoch
#: time.  1.05 == "always-on may cost at most 5 %".
FLIGHT_OVERHEAD_BUDGET = 1.05


def _make_problem(samples: int, features: int, classes: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(samples, features)).astype(np.float32)
    y = rng.integers(0, classes, size=samples).astype(np.int64)
    return X, y


def bench_telemetry(
    *,
    ranks: int = 2,
    samples: int = 128,
    features: int = 16,
    classes: int = 4,
    batch_size: int = 16,
    epochs: int = 4,
    q: float = 0.3,
    repeats: int = 5,
    seed: int = 0,
) -> dict[str, Any]:
    """Measure disabled / flight-only / tracing epoch cost on one job."""
    X, y = _make_problem(samples, features, classes, seed)
    config = TrainConfig(
        model="mlp",
        in_shape=(features,),
        num_classes=classes,
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
    )
    val_X, val_y = X[: max(batch_size, 8)], y[: max(batch_size, 8)]

    def worker(comm):
        strategy = PartialLocalShuffle(q)
        return train_worker(
            comm, config, strategy, TensorDataset(X, y), y, val_X, val_y
        )

    modes = {
        "disabled": dict(flight=False),
        "flight": dict(),
        "tracing": dict(tracing=True),
    }
    run_spmd(worker, ranks)  # warm-up, untimed: absorbs cold-start cost

    walls: dict[str, list[float]] = {name: [] for name in modes}
    final_losses: dict[str, float] = {}
    pushes: dict[str, int] = {}
    # Interleave the modes round-robin so machine-load drift over the
    # benchmark's lifetime is shared by all three, not attributed to one.
    for _ in range(repeats):
        for name, launch_kwargs in modes.items():
            t0 = time.perf_counter()
            res = run_spmd(worker, ranks, **launch_kwargs)
            walls[name].append(time.perf_counter() - t0)
            final_losses[name] = res[0].records[-1].train_loss
            pushes[name] = res.world.telemetry.snapshot()["pushes"]

    results: dict[str, Any] = {
        name: {
            "wall_time_s": min(ws),
            "walls": ws,
            "per_epoch_s": min(ws) / epochs,
        }
        for name, ws in walls.items()
    }
    t_disabled = results["disabled"]["wall_time_s"]
    identical = len(set(final_losses.values())) == 1
    if not identical:
        raise AssertionError(
            f"telemetry changed the training result: {final_losses}"
        )
    if pushes["disabled"] != 0 or pushes["flight"] == 0:
        raise AssertionError(
            f"unexpected push counts (disabled={pushes['disabled']}, "
            f"flight={pushes['flight']}): the flight gate is broken"
        )
    return {
        "config": {
            "ranks": ranks, "samples": samples, "features": features,
            "classes": classes, "batch_size": batch_size, "epochs": epochs,
            "q": q, "repeats": repeats, "seed": seed,
        },
        "modes": results,
        "pushes": pushes,
        "ratios": {
            "flight_overhead": (
                results["flight"]["wall_time_s"] / t_disabled
                if t_disabled > 0 else float("inf")
            ),
            "tracing_overhead": (
                results["tracing"]["wall_time_s"] / t_disabled
                if t_disabled > 0 else float("inf")
            ),
        },
        "budget": {"flight_overhead_max": FLIGHT_OVERHEAD_BUDGET},
        "identical_history": identical,
    }
