#!/usr/bin/env python
"""Profile one ``repro.nn`` training step (ROADMAP item 2's deliverable).

Runs the step the ``compute_*`` benchmark workloads spend 95 % of their
time in — ``resnet_tiny`` on ``(3, 16, 16)`` samples, batch 32 — in the
loop shape of ``train_one_epoch``: forward, ``cross_entropy``,
``zero_grad``, ``backward``, the flat-model SGD update, with ``logits`` and
``loss`` held from one iteration into the next.  It prints

* the step's wall time with the profiler off (median of ``--steps``),
* minor page faults per step over the same steps (median and max),
* a steady step's ``tracemalloc`` peak: what the process holds at the
  step's worst moment, arena included (a separate model, traced from its
  construction),
* how many arrays the model's arena holds after warm-up and after the
  timed steps (a step after the first makes none), and its blocks per
  ``(shape, dtype)`` with their bytes,
* how many graph nodes one forward + loss records (counted before
  ``backward()``, which releases the graph),
* the model's pickled size fresh and after the timed steps and
  ``zero_grad()`` (a copy carries no arena and no gradient view),
* per-function *self* time under ``cProfile`` as ms per step and share.

cProfile charges every Python call but not the work inside numpy, so the
shares overstate call-heavy code; they find candidates, the benchmark
(``benchmarks/perf/run.py``) decides.  BLAS is pinned to one thread so the
numbers do not depend on the core count.

Usage: ``python tools/profile_nn_step.py [--steps N] [--top K]``
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pickle
import pstats
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

BATCH = 32
SAMPLE_SHAPE = (3, 16, 16)
CLASSES = 8
WARMUP_STEPS = 3


def graph_nodes(root) -> int:
    """Graph nodes reachable from ``root``'s that carry a backward closure."""
    seen: set[int] = set()
    stack = [root._node]
    count = 0
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        count += node.backward is not None
        stack.extend(node.parents)
    return count


def main(argv: list[str] | None = None) -> int:
    """Run the profile and print the report."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=30, help="steps after warm-up")
    parser.add_argument("--top", type=int, default=14, help="functions to list")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")

    # Before numpy loads its BLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from repro.nn import SGD, Tensor, build_model
    from repro.nn import functional as F
    from repro.train.trainer import MOMENTUM, WEIGHT_DECAY

    rng = np.random.default_rng(0)
    x = rng.normal(size=(BATCH, *SAMPLE_SHAPE)).astype(np.float32)
    y = rng.integers(0, CLASSES, size=BATCH)

    def resnet():
        return build_model("resnet_tiny", in_shape=SAMPLE_SHAPE, num_classes=CLASSES, seed=0)

    def trainer_loop(model):
        """Steps shaped like ``train_one_epoch``: the last step's ``logits``
        / ``loss`` stay bound while the next forward runs.  Each ``next()``
        is one step: the pending backward and update, then the next
        forward, whose loss it returns."""
        optimizer = SGD(model.flatten(), lr=0.05, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY)
        while True:
            logits = model(Tensor(x))
            loss = F.cross_entropy(logits, y)
            yield loss  # before backward(): the graph is still there to count
            model.zero_grad()
            loss.backward()
            optimizer.step()

    tracemalloc.start()
    steps = trainer_loop(resnet())
    for _ in range(WARMUP_STEPS + 1):
        next(steps)
    tracemalloc.reset_peak()
    next(steps)
    peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    del steps

    fresh_bytes = len(pickle.dumps(resnet()))
    model = resnet()
    steps = trainer_loop(model)
    for _ in range(WARMUP_STEPS):
        nodes = graph_nodes(next(steps))
    warm_arrays = len(model._arena)

    walls, faults = [], []
    for _ in range(args.steps):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        next(steps)
        walls.append((time.perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.steps):
        next(steps)
    profiler.disable()
    stats = pstats.Stats(profiler).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    total = sum(row[2] for row in stats.values())
    rows = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[: args.top]

    print(f"resnet_tiny step, batch {BATCH}, sample {SAMPLE_SHAPE}, trainer-shaped loop, "
          f"OPENBLAS_NUM_THREADS=1, {args.steps} steps after {WARMUP_STEPS} warm-up")
    print(f"step wall (profiler off): median {statistics.median(walls):.2f} ms, "
          f"min {min(walls):.2f} ms, max {max(walls):.2f} ms")
    print(f"minor faults per step: median {statistics.median(faults):g}, max {max(faults)}")
    print(f"steady step tracemalloc peak: {peak_mib:.1f} MiB")
    print(f"arena arrays: {warm_arrays} after warm-up, {len(model._arena)} after "
          f"{2 * args.steps} more steps")
    for (shape, dtype), bucket in model._arena._blocks.items():
        print(f"  {len(bucket):3d} x {str(shape):20s} {str(dtype):8s} "
              f"{sum(block.nbytes for block, _ in bucket) / 2**20:6.2f} MiB")
    print(f"graph nodes per forward + cross_entropy: {nodes}")
    model.zero_grad()
    print(f"pickled model: {fresh_bytes} B fresh, {len(pickle.dumps(model))} B after the "
          f"steps and zero_grad()")
    print(f"self time under cProfile: {total / args.steps * 1e3:.2f} ms per step")
    print(f"{'ms/step':>8} {'share':>6} {'calls/step':>10}  function")
    for (filename, lineno, name), (_cc, ncalls, tottime, _ct, _callers) in rows:
        where = name if filename == "~" else f"{Path(filename).name}:{lineno}({name})"
        print(f"{tottime / args.steps * 1e3:8.3f} {tottime / total:6.1%} "
              f"{ncalls / args.steps:10.1f}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
