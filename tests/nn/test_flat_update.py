"""Flat state: one update over a flattened model is the per-parameter update.

The loops below are the optimisers' update as it was written per parameter;
they are the reference the whole-buffer update is held to, bit for bit.
"""

import numpy as np
import pytest

from repro.nn import SGD, Tensor, build_model
from repro.nn import functional as F


def reference_sgd_step(params, velocity, lr, momentum, weight_decay, nesterov):
    for i, p in enumerate(params):
        if p.grad is None:
            continue
        grad = p.grad
        if weight_decay:
            grad = grad + weight_decay * p.data
        if momentum:
            if velocity[i] is None:
                velocity[i] = np.zeros_like(p.data)
            v = velocity[i]
            v *= momentum
            v += grad
            grad = grad + momentum * v if nesterov else v
        p.data -= lr * grad


def make(name):
    """A model by name and a batch for it; ``frozen_backbone`` trains only
    the last layer of ``mlp`` (the Figure 8 fine-tuning variant)."""
    rng = np.random.default_rng(7)
    if name == "resnet_tiny":
        model = build_model(name, in_shape=(3, 8, 8), num_classes=4, seed=3)
        x = rng.normal(size=(8, 3, 8, 8))
    else:
        model = build_model("mlp", in_shape=(16,), num_classes=4, seed=3)
        x = rng.normal(size=(8, 16))
        if name == "frozen_backbone":
            # A frozen backbone: only the head requires grad.
            head = {id(p) for p in model.net.layer6.parameters()}
            for p in model.parameters():
                p.requires_grad = id(p) in head
    return model, x.astype(np.float32), rng.integers(0, 4, size=8)


def backward(model, x, y):
    loss = F.cross_entropy(model(Tensor(x)), y)
    model.zero_grad()
    loss.backward()


MODELS = ["mlp", "resnet_tiny", "frozen_backbone"]
GRID = [
    (wd, m, nesterov)
    for wd in (0.0, 1e-4)
    for m in (0.0, 0.9)
    for nesterov in (False, True)
    if m or not nesterov
]


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("weight_decay,momentum,nesterov", GRID)
def test_flat_sgd_is_the_per_parameter_loop(name, weight_decay, momentum, nesterov):
    ref, x, y = make(name)
    flat, _, _ = make(name)
    params = ref.trainable_parameters()
    velocity = [None] * len(params)
    opt = SGD(flat.flatten(), 0.05, momentum=momentum, weight_decay=weight_decay,
              nesterov=nesterov)
    assert len(opt._groups) == 1  # the whole model is one group
    for _ in range(5):
        backward(ref, x, y)
        reference_sgd_step(params, velocity, 0.05, momentum, weight_decay, nesterov)
        backward(flat, x, y)
        opt.step()
    for (n, p), (_, q) in zip(ref.named_parameters(), flat.named_parameters()):
        assert np.array_equal(p.data, q.data), n
    for v, w in zip(velocity, opt._velocity):
        assert (v is None and w is None) or np.array_equal(v, w)
    for (n, a), (_, b) in zip(ref.named_buffers(), flat.named_buffers()):
        assert np.array_equal(a, b), n


class TestLayout:
    def test_everything_is_a_view_of_three_flat_buffers(self):
        model, x, y = make("resnet_tiny")
        flat = model.flatten()
        opt = SGD(flat, 0.1, momentum=0.9)
        backward(model, x, y)
        grads = flat.grad
        assert flat.data.dtype == grads.dtype == flat.stats.dtype == np.float32
        assert flat.data.size == grads.size == sum(p.size for p in model.parameters())
        for p, v in zip(model.parameters(), opt._velocity):
            assert np.shares_memory(p.data, flat.data)
            assert np.shares_memory(p.grad, grads)
            assert np.shares_memory(v, opt._groups[0][1])
        assert flat.stats.size == sum(b.size for _, b in model.named_buffers())
        for _, buf in model.named_buffers():
            assert np.shares_memory(buf, flat.stats)
        assert model.flatten() is flat  # fixed by the first call

    def test_frozen_parameters_stay_out_of_the_layout(self):
        model, x, y = make("frozen_backbone")
        flat = model.flatten()
        assert [p is q for p, q in zip(flat, model.net.layer6.parameters())] == [True, True]
        backward(model, x, y)
        assert flat.grad.size == sum(p.size for p in model.net.layer6.parameters())
        assert model.net.layer0.weight.grad is None

    def test_zero_grad_keeps_its_meaning(self):
        model, x, y = make("mlp")
        flat = model.flatten()
        opt = SGD(flat, 0.1)
        assert flat.grad is None
        before = flat.data.copy()
        opt.step()  # nothing to apply
        assert np.array_equal(flat.data, before)
        backward(model, x, y)
        assert flat.grad is not None
        model.zero_grad()
        assert flat.grad is None and all(p.grad is None for p in model.parameters())

    def test_a_parameter_the_tape_missed_counts_as_zeros(self):
        model, x, y = make("mlp")
        flat = model.flatten()
        backward(model, x, y)
        stale = model.net.layer6.bias
        stale.grad = None  # as if the forward pass had not used it
        assert stale._grad_view.any()  # last step's values are still there
        flat.grad
        assert np.array_equal(stale.grad, np.zeros_like(stale.data))

    def test_a_gradient_assigned_by_hand_is_copied_in(self):
        model, _, _ = make("mlp")
        flat = model.flatten()
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        assert np.array_equal(flat.grad, np.ones(flat.data.size, dtype=np.float32))

    def test_a_pickled_model_lays_itself_out_afresh(self):
        import pickle

        model, x, y = make("mlp")
        model.flatten()
        clone = pickle.loads(pickle.dumps(model))
        flat = clone.flatten()
        assert all(np.shares_memory(p.data, flat.data) for p in clone.parameters())
        backward(clone, x, y)
        SGD(flat, 0.1).step()
        assert not np.array_equal(clone.net.layer6.weight.data, model.net.layer6.weight.data)
