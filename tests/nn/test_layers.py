import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
    Tensor,
)


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(randn(5, 4)))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameters_registered(self):
        layer = Linear(4, 3)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_deterministic_init(self):
        a = Linear(4, 3, rng=np.random.default_rng(7))
        b = Linear(4, 3, rng=np.random.default_rng(7))
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_backward_populates_grads(self):
        layer = Linear(4, 2)
        layer(Tensor(randn(3, 4))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestConv2dLayer:
    def test_shapes(self):
        layer = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        assert layer(Tensor(randn(2, 3, 6, 6))).shape == (2, 8, 6, 6)

    def test_stride(self):
        layer = Conv2d(1, 2, 3, stride=2, padding=1)
        assert layer(Tensor(randn(1, 1, 8, 8))).shape == (1, 2, 4, 4)


class TestSequentialAndMisc:
    def test_sequential_composition(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        assert model(Tensor(randn(3, 4))).shape == (3, 2)
        assert len(model.layers) == 3
        assert isinstance(model.layers[1], ReLU)

    def test_sequential_registers_params(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        assert len(model.parameters()) == 4

    def test_global_avg_pool(self):
        x = np.ones((2, 3, 4, 4), dtype=np.float32) * 5
        out = GlobalAvgPool2d()(Tensor(x))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, 5.0)

    def test_module_call_coerces_numpy(self):
        layer = Linear(4, 2)
        out = layer(randn(3, 4))
        assert isinstance(out, Tensor)


class TestModuleStateDict:
    def test_roundtrip(self):
        a = Sequential(Linear(4, 8, rng=np.random.default_rng(1)), ReLU(), Linear(8, 2, rng=np.random.default_rng(2)))
        b = Sequential(Linear(4, 8, rng=np.random.default_rng(3)), ReLU(), Linear(8, 2, rng=np.random.default_rng(4)))
        b.load_state_dict(a.state_dict())
        x = Tensor(randn(3, 4))
        assert np.allclose(a(x).data, b(x).data)

    def test_shape_mismatch_rejected(self):
        a = Linear(4, 2)
        state = a.state_dict()
        state["param:weight"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_unknown_key_rejected(self):
        a = Linear(4, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({"param:nope": np.zeros(1)})

    def test_state_dict_is_copy(self):
        a = Linear(4, 2)
        state = a.state_dict()
        state["param:weight"][...] = 99
        assert not np.allclose(a.weight.data, 99)

    def test_zero_grad(self):
        layer = Linear(4, 2)
        layer(Tensor(randn(3, 4))).sum().backward()
        layer.zero_grad()
        assert layer.weight.grad is None


def freeze(module):
    """A frozen backbone: its parameters take no gradient."""
    for p in module.parameters():
        p.requires_grad = False


class TestFreezing:
    def test_frozen_backbone_gets_no_grad(self):
        backbone = Linear(4, 8)
        head = Linear(8, 2)
        freeze(backbone)
        x = Tensor(randn(3, 4))
        out = head(backbone(x).relu())
        out.sum().backward()
        assert backbone.weight.grad is None
        assert head.weight.grad is not None

    def test_head_only_finetune_preserves_backbone(self):
        from repro.nn import SGD

        backbone = Linear(4, 8, rng=np.random.default_rng(1))
        head = Linear(8, 2, rng=np.random.default_rng(2))
        freeze(backbone)
        before = backbone.weight.data.copy()
        opt = SGD(head.trainable_parameters(), lr=0.1)
        for _ in range(3):
            loss = head(backbone(Tensor(randn(5, 4))).relu()).sum()
            head.zero_grad()
            loss.backward()
            opt.step()
        assert np.array_equal(backbone.weight.data, before)
        assert not np.array_equal(head.weight.data,
                                  Linear(8, 2, rng=np.random.default_rng(2)).weight.data)
