"""One training step holds one graph, in arrays the model's arena recycles.

The loop below has the shape of ``train_one_epoch``: the last step's
``logits`` / ``loss`` stay bound while the next forward runs.  Before the
tape was released on backward, that kept a whole second graph alive (a
61 MiB tracemalloc peak for ``resnet_tiny`` at batch 32).
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.nn import SGD, Module, Tensor, build_model
from repro.nn import functional as F

SHAPE = (3, 16, 16)


def trainer_steps(model, steps, *, seed=0):
    """Run ``steps`` trainer-shaped steps; yields after each one."""
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.flatten(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    for _ in range(steps):
        x = rng.normal(size=(32, *SHAPE)).astype(np.float32)
        y = rng.integers(0, 8, size=32)
        logits = model(Tensor(x))
        loss = F.cross_entropy(logits, y)
        model.zero_grad()
        loss.backward()
        optimizer.step()
        yield logits, loss


def resnet():
    return build_model("resnet_tiny", in_shape=SHAPE, num_classes=8, seed=0)


def graph(root):
    """Every tensor reachable from ``root`` through the tape."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._prev)
    return list(seen.values())


def test_a_steady_trainer_shaped_step_peaks_under_40_mib():
    tracemalloc.start()
    try:
        steps = trainer_steps(resnet(), 5)
        for _ in range(4):
            next(steps)
        tracemalloc.reset_peak()
        next(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_steps_after_the_first_make_no_arena_array():
    model = resnet()
    made = [len(model._arena) for _ in trainer_steps(model, 5)]
    assert made[0] > 0
    assert made == [made[0]] * 5


def test_backward_releases_the_graph_and_a_second_one_raises():
    model = resnet()
    x = Tensor(np.random.default_rng(1).normal(size=(4, *SHAPE)).astype(np.float32))
    loss = F.cross_entropy(model(x), np.arange(4) % 8)
    nodes = graph(loss)
    interior = [node for node in nodes if node._prev]
    leaves = [node for node in nodes if not node._prev]
    assert len(interior) >= 27
    loss.backward()
    for node in interior:
        assert node._backward is None and node._prev is None and node._arena is None
    assert all(node._prev == () for node in leaves)  # parameters stay leaves
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    with pytest.raises(RuntimeError, match="released"):
        (loss * 2.0).backward()


def flat_grads(model, steps):
    """The flat gradient of each of ``steps`` trainer-shaped steps."""
    return [model.flatten().grad.tobytes() for _ in trainer_steps(model, steps)]


def test_the_arena_step_is_the_bare_step_bit_for_bit(monkeypatch):
    arena_model, bare_model = resnet(), resnet()
    arena_grads = flat_grads(arena_model, 3)
    assert len(arena_model._arena) > 0
    # Bare functional calls: no model call makes an arena current.
    monkeypatch.setattr(Module, "__call__", lambda self, x: self.forward(x))
    assert flat_grads(bare_model, 3) == arena_grads
    assert "_arena" not in bare_model.__dict__
    assert arena_model.flatten().data.tobytes() == bare_model.flatten().data.tobytes()


def test_a_pickled_model_carries_no_arena(monkeypatch):
    """What a model returned across the ``procs`` pipe weighs after a
    step: what the same step leaves on a model that never had an arena (a
    trained model also carries its gradient, which a fresh one has not)."""
    model = resnet()
    for _ in trainer_steps(model, 1):
        pass
    assert len(model._arena) > 0
    monkeypatch.setattr(Module, "__call__", lambda self, x: self.forward(x))
    bare = resnet()
    for _ in trainer_steps(bare, 1):
        pass
    size, bare_size = len(pickle.dumps(model)), len(pickle.dumps(bare))
    assert abs(size - bare_size) <= 0.1 * bare_size, (size, bare_size)
    copy = pickle.loads(pickle.dumps(model))
    assert "_arena" not in copy.__dict__
    assert copy.flatten().data.tobytes() == model.flatten().data.tobytes()
