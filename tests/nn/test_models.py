import numpy as np
import pytest

from repro.data import SyntheticSpec, make_classification
from repro.nn import (
    MODEL_NAMES,
    SGD,
    Tensor,
    accuracy,
    build_model,
)
from repro.nn import functional as F
from repro.nn.init import compute_fans, kaiming_uniform
from repro.nn.metrics import RunningAverage


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestFactory:
    def test_all_names_buildable(self):
        for name in MODEL_NAMES:
            in_shape = (16,) if name.startswith("mlp") else (1, 8, 8)
            model = build_model(name, in_shape=in_shape, num_classes=4, seed=0)
            x = randn(4, *in_shape)
            out = model(Tensor(x))
            assert out.shape == (4, 4), name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("transformer-xxl", in_shape=(4,), num_classes=2)

    def test_shape_mismatch_detected(self):
        with pytest.raises(ValueError):
            build_model("mlp", in_shape=(1, 8, 8), num_classes=2)
        with pytest.raises(ValueError):
            build_model("cnn", in_shape=(16,), num_classes=2)

    def test_same_seed_same_weights(self):
        a = build_model("mlp", in_shape=(8,), num_classes=3, seed=42)
        b = build_model("mlp", in_shape=(8,), num_classes=3, seed=42)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_norm_override(self):
        m = build_model("mlp", in_shape=(8,), num_classes=3, norm="group")
        from repro.nn import GroupNorm

        assert any(isinstance(mod, GroupNorm) for mod in m.modules())

    def test_resnet_backward(self):
        model = build_model("resnet_tiny", in_shape=(1, 8, 8), num_classes=3, seed=0)
        loss = F.cross_entropy(model(Tensor(randn(4, 1, 8, 8))), np.array([0, 1, 2, 0]))
        model.zero_grad()
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_resnet_step_stays_fused(self):
        """A later edit must not silently un-fuse the norm (92 tape nodes when
        each BatchNorm was ~12 composed ops, 27 with one node per layer)."""
        model = build_model("resnet_tiny", in_shape=(3, 16, 16), num_classes=8, seed=0)
        loss = F.cross_entropy(model(Tensor(randn(32, 3, 16, 16))), np.arange(32) % 8)
        seen, stack, nodes = set(), [loss._node], 0
        while stack:
            node = stack.pop()
            if node is not None and id(node) not in seen:
                seen.add(id(node))
                nodes += node.backward is not None
                stack.extend(node.parents)
        assert nodes <= 45

    def test_mlp_learns_separable_data(self):
        X, y = make_classification(SyntheticSpec(300, 3, n_features=12, separation=3.0, seed=1))
        model = build_model("mlp", in_shape=(12,), num_classes=3, seed=0)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(50):
            loss = F.cross_entropy(model(Tensor(X)), y)
            model.zero_grad()
            loss.backward()
            opt.step()
        model.eval()
        assert accuracy(model(Tensor(X)), y) > 0.9


class TestInit:
    def test_compute_fans(self):
        assert compute_fans((10, 4)) == (4, 10)
        assert compute_fans((8, 3, 3, 3)) == (27, 72)
        assert compute_fans((5,)) == (5, 5)

    def test_kaiming_scale(self):
        w = kaiming_uniform((1000, 100), rng=np.random.default_rng(0))
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 100)
        assert np.abs(w).max() <= bound + 1e-6
        assert w.std() == pytest.approx(bound / np.sqrt(3), rel=0.05)

    def test_scalar_shape_rejected(self):
        with pytest.raises(ValueError):
            compute_fans(())


class TestMetrics:
    def test_top1(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_batch_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_tensor_input(self):
        logits = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
        assert accuracy(logits, np.array([0])) == 1.0

    def test_running_average(self):
        ra = RunningAverage()
        ra.update(1.0, weight=1)
        ra.update(0.0, weight=3)
        assert ra.value == pytest.approx(0.25)

    def test_running_average_empty(self):
        with pytest.raises(ValueError):
            RunningAverage().value

    def test_running_average_bad_weight(self):
        with pytest.raises(ValueError):
            RunningAverage().update(1.0, weight=0)
