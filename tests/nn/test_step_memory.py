"""One training step holds one graph of nodes, in arrays the model's arena
recycles.

The loop below has the shape of ``train_one_epoch``: the last step's
``logits`` / ``loss`` stay bound while the next forward runs.  Before the
tape was released on backward, that kept a whole second graph alive (a
61 MiB tracemalloc peak for ``resnet_tiny`` at batch 32).  Before the graph
held nodes instead of tensors, every activation stayed on it until
backward (a 34 MiB peak, 26 activation-sized arena blocks).
"""

import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.nn import SGD, Module, Tensor, build_model
from repro.nn import functional as F

SHAPE = (3, 16, 16)
#: One ``resnet_tiny`` activation at batch 32: 512 KiB.
ACTIVATION = ((32, 16, *SHAPE[1:]), np.dtype(np.float32))


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
    """Every node reachable from ``root``'s."""
    seen, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def test_a_steady_trainer_shaped_step_peaks_under_28_mib():
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
    assert peak <= 28 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_steps_after_the_first_make_no_arena_array():
    model = resnet()
    made = [len(model._arena) for _ in trainer_steps(model, 5)]
    assert made[0] > 0
    assert made == [made[0]] * 5


def test_a_steady_step_keeps_at_most_12_activation_blocks():
    model = resnet()
    for _ in trainer_steps(model, 3):
        pass
    assert len(model._arena._blocks[ACTIVATION]) <= 12


def test_an_activation_no_backward_reads_is_freed_before_backward():
    """The stem conv's output: its norm keeps ``x_hat``, not its input."""
    model = resnet()
    conv, outputs = model.stem.layers[0], []
    forward = conv.forward

    def recording(x):
        out = forward(x)
        outputs.append(weakref.ref(out.data))
        return out

    conv.forward = recording
    x = Tensor(np.random.default_rng(1).normal(size=(32, *SHAPE)).astype(np.float32))
    loss = F.cross_entropy(model(x), np.arange(32) % 8)
    assert len(outputs) == 1 and outputs[0]() is None
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


def test_backward_releases_the_graph_and_a_second_one_raises():
    model = resnet()
    x = Tensor(np.random.default_rng(1).normal(size=(4, *SHAPE)).astype(np.float32))
    loss = F.cross_entropy(model(x), np.arange(4) % 8)
    nodes = graph(loss)
    interior = [node for node in nodes if node.parents]
    leaves = [node for node in nodes if not node.parents]
    assert len(interior) >= 27
    assert {type(node.leaf).__name__ for node in leaves} == {"Parameter"}
    # A closure keeps arrays and parent nodes, never a tensor.
    for node in interior:
        cells = [cell.cell_contents for cell in node.backward.__closure__]
        assert not any(isinstance(value, Tensor) for value in cells), node.op
    loss.backward()
    for node in interior:
        assert node.backward is None and node.parents is None and node.arena is None
        assert node.grad is None
    assert all(node.parents == () for node in leaves)  # parameters stay leaves
    assert loss.grad is not None  # the root keeps its gradient
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


def test_a_pickled_model_carries_no_arena():
    """What a model returned across the ``procs`` pipe weighs after a step
    and ``zero_grad()``: what a fresh one does.  No arena, no flat layout
    and no view of its flat gradient goes with it."""
    model = resnet()
    for _ in trainer_steps(model, 1):
        pass
    assert len(model._arena) > 0
    model.zero_grad()
    size, fresh_size = len(pickle.dumps(model)), len(pickle.dumps(resnet()))
    assert abs(size - fresh_size) <= 0.1 * fresh_size, (size, fresh_size)
    copy = pickle.loads(pickle.dumps(model))
    assert "_arena" not in copy.__dict__
    assert not any("_grad_view" in p.__dict__ for p in copy.parameters())
    assert copy.flatten().data.tobytes() == model.flatten().data.tobytes()
    # The copy's first step lays out its own flat gradient.
    for _ in trainer_steps(copy, 1):
        pass
    flat = copy.flatten()
    assert all(np.shares_memory(p.grad, flat.grad) for p in copy.parameters())
    assert not np.shares_memory(flat.grad, model.flatten()._grad)


def test_a_steady_sgd_step_allocates_nothing():
    """The benchmark's ``mlp`` (12 KB samples): a parameter-sized array is
    788 KiB, so one temporary would show."""
    model = build_model("mlp", in_shape=(3072,), num_classes=8, seed=0)
    optimizer = SGD(model.flatten(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(32, 3072)).astype(np.float32))
    F.cross_entropy(model(x), np.arange(32) % 8).backward()
    optimizer.step()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 64 * 2**10, peak - before
