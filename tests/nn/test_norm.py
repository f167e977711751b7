import numpy as np
import pytest

from repro.nn import BatchNorm1d, BatchNorm2d, GroupNorm, Tensor
from repro.nn.gradcheck import gradcheck


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(2.0, 3.0, size=shape).astype(np.float32)


class TestBatchNorm1d:
    def test_train_normalises_batch(self):
        bn = BatchNorm1d(4)
        out = bn(Tensor(randn(64, 4)))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-4)
        assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(4, momentum=1.0)  # adopt batch stats immediately
        x = randn(128, 4)
        bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-2)

    def test_running_stats_update(self):
        bn = BatchNorm1d(2, momentum=0.5)
        x = np.array([[10.0, 0.0], [10.0, 0.0], [12.0, 0.0], [8.0, 0.0]], dtype=np.float32)
        bn(Tensor(x))
        assert bn.running_mean[0] == pytest.approx(0.5 * 10.0)
        assert bn.running_mean[1] == pytest.approx(0.0)

    def test_eval_no_stat_update(self):
        bn = BatchNorm1d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(Tensor(randn(8, 2)))
        assert np.array_equal(bn.running_mean, before)

    def test_batch_of_one_rejected_in_train(self):
        bn = BatchNorm1d(2)
        with pytest.raises(ValueError):
            bn(Tensor(randn(1, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchNorm1d(4)(Tensor(randn(8, 5)))

    def test_grad_flows(self):
        bn = BatchNorm1d(3)
        gradcheck(lambda t: bn(t), np.random.default_rng(0).normal(size=(8, 3)))

    def test_skewed_batch_shifts_running_stats(self):
        """The paper's §IV-A-1 mechanism: per-worker skewed batches produce
        biased statistics vs a globally mixed batch."""
        rng = np.random.default_rng(0)
        class0 = rng.normal(-3.0, 1.0, size=(64, 2)).astype(np.float32)
        class1 = rng.normal(+3.0, 1.0, size=(64, 2)).astype(np.float32)
        bn_skew = BatchNorm1d(2, momentum=1.0)
        bn_skew(Tensor(class0))  # a worker that only sees class 0
        bn_mixed = BatchNorm1d(2, momentum=1.0)
        bn_mixed(Tensor(np.concatenate([class0, class1])))
        assert abs(bn_skew.running_mean[0] - bn_mixed.running_mean[0]) > 2.0


class TestBatchNorm2d:
    def test_per_channel_stats(self):
        bn = BatchNorm2d(3)
        out = bn(Tensor(randn(8, 3, 4, 4)))
        flat = out.data.transpose(1, 0, 2, 3).reshape(3, -1)
        assert np.allclose(flat.mean(axis=1), 0.0, atol=1e-4)
        assert np.allclose(flat.std(axis=1), 1.0, atol=1e-2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(randn(8, 3)))

    def test_grad_flows(self):
        bn = BatchNorm2d(2)
        gradcheck(lambda t: bn(t), np.random.default_rng(0).normal(size=(4, 2, 3, 3)))

    def test_affine_params_learnable(self):
        bn = BatchNorm2d(3)
        bn(Tensor(randn(4, 3, 4, 4))).sum().backward()
        assert bn.weight.grad is not None and bn.bias.grad is not None


class TestGroupNorm:
    def test_batch_size_independent(self):
        """GroupNorm output for a sample must not depend on its batch — the
        property making it robust to tiny per-worker batches (§IV-A-1)."""
        gn = GroupNorm(2, 4)
        x = randn(8, 4, 3, 3)
        full = gn(Tensor(x)).data
        single = gn(Tensor(x[:1])).data
        assert np.allclose(full[:1], single, atol=1e-5)

    def test_2d_input(self):
        gn = GroupNorm(4, 8)
        assert gn(Tensor(randn(5, 8))).shape == (5, 8)

    def test_divisibility_check(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GroupNorm(2, 4)(Tensor(randn(5, 6)))

    def test_grad_flows(self):
        gn = GroupNorm(2, 4)
        gradcheck(lambda t: gn(t), np.random.default_rng(0).normal(size=(3, 4, 2, 2)))

    def test_group_stats_normalised(self):
        gn = GroupNorm(2, 4)
        out = gn(Tensor(randn(6, 4, 5, 5))).data
        grouped = out.reshape(6, 2, -1)
        assert np.allclose(grouped.mean(axis=2), 0.0, atol=1e-4)


def composed(x, weight, bias, axes, eps=1e-5):
    """Normalise + affine spelled out in primitive Tensor ops: the reference
    the fused node replaced."""
    kept = tuple(1 if i in axes else n for i, n in enumerate(x.shape))
    centered = x - x.mean(axis=axes).reshape(kept)
    var = (centered * centered).mean(axis=axes).reshape(kept)
    return centered * ((var + eps) ** -0.5) * weight + bias


def bn1d_ref(layer, x):
    return composed(x, layer.weight.reshape(1, -1), layer.bias.reshape(1, -1), (0,))


def bn2d_ref(layer, x):
    shape = (1, -1, 1, 1)
    return composed(x, layer.weight.reshape(shape), layer.bias.reshape(shape), (0, 2, 3))


def gn_ref(layer, x):
    n, g = x.shape[0], layer.num_groups
    shape = (1, g, layer.num_channels // g, 1)
    grouped = x.reshape(n, g, layer.num_channels // g, -1)
    out = composed(grouped, layer.weight.reshape(shape), layer.bias.reshape(shape), (2, 3))
    return out.reshape(*x.shape)


FUSED_CASES = {
    "bn1d": (lambda: BatchNorm1d(3), (6, 3), bn1d_ref),
    "bn2d": (lambda: BatchNorm2d(2), (3, 2, 3, 2), bn2d_ref),
    "gn4d": (lambda: GroupNorm(2, 4), (2, 4, 2, 3), gn_ref),
    "gn2d": (lambda: GroupNorm(2, 6), (3, 6), gn_ref),
}


@pytest.fixture(params=sorted(FUSED_CASES))
def fused_case(request):
    make, shape, ref = FUSED_CASES[request.param]
    rng = np.random.default_rng(7)
    layer = make()
    layer.weight.data[...] = rng.normal(1.0, 0.5, size=layer.weight.shape)
    layer.bias.data[...] = rng.normal(size=layer.bias.shape)
    x = rng.normal(1.0, 2.0, size=shape).astype(np.float32)
    # sum(layer(x)) is flat in x for a normalised output; a fixed random
    # projection makes every gradient non-trivial.
    proj = Tensor(rng.normal(size=shape).astype(np.float32))
    return layer, x, proj, ref


class TestFusedNormalize:
    def test_one_tape_node(self, fused_case):
        layer, x, _proj, _ref = fused_case
        node = layer(Tensor(x, requires_grad=True))._node
        while node.op == "reshape":  # GroupNorm views the input per group
            (node,) = node.parents
        assert node.op == "normalize"
        assert {p.op for p in node.parents} <= {"", "reshape"}

    def test_matches_composed_primitives(self, fused_case):
        layer, x, proj, ref = fused_case
        results = []
        for fn in (lambda t: layer(t), lambda t: ref(layer, t)):
            layer.zero_grad()
            t = Tensor(x.copy(), requires_grad=True)
            out = fn(t)
            (out * proj).sum().backward()
            results.append((out.data, t.grad, layer.weight.grad.copy(), layer.bias.grad.copy()))
        for fused, reference in zip(*results):
            assert fused.shape == reference.shape
            assert np.allclose(fused, reference, rtol=1e-4, atol=1e-5)

    def test_gradcheck_input(self, fused_case):
        layer, x, proj, _ref = fused_case
        gradcheck(lambda t: layer(t) * proj, x)

    @pytest.mark.parametrize("name", ["weight", "bias"])
    def test_gradcheck_parameters(self, fused_case, name):
        layer, x, proj, _ref = fused_case
        start = getattr(layer, name).data.copy()

        def fn(t):
            setattr(layer, name, t)  # a plain tracked Tensor in the parameter's place
            return layer(Tensor(x)) * proj

        gradcheck(fn, start)


class TestBatchNormStatistics:
    @pytest.mark.parametrize("cls, shape, axes", [
        (BatchNorm1d, (16, 3), (0,)),
        (BatchNorm2d, (4, 3, 5, 2), (0, 2, 3)),
    ])
    def test_running_stats_follow_the_numpy_formula(self, cls, shape, axes):
        bn = cls(3, momentum=0.3)
        mean, var = np.zeros(3), np.ones(3)
        for seed in range(3):
            x = randn(*shape, seed=seed)
            bn(Tensor(x))
            n = x.size // 3
            mean = 0.7 * mean + 0.3 * x.mean(axis=axes, dtype=np.float64)
            var = 0.7 * var + 0.3 * x.var(axis=axes, dtype=np.float64) * n / (n - 1)
        assert bn.running_mean.dtype == np.float32
        assert np.allclose(bn.running_mean, mean, rtol=1e-5)
        assert np.allclose(bn.running_var, var, rtol=1e-5)

    def test_single_value_per_channel_rejected_in_train(self):
        with pytest.raises(ValueError, match="BatchNorm2d"):
            BatchNorm2d(2)(Tensor(randn(1, 2, 1, 1)))

    def test_eval_is_the_folded_scale_and_shift(self):
        bn = BatchNorm2d(3)
        rng = np.random.default_rng(0)
        bn.weight.data[...] = rng.normal(1.0, 0.5, size=3)
        bn.bias.data[...] = rng.normal(size=3)
        for seed in range(2):
            bn(Tensor(randn(4, 3, 2, 2, seed=seed)))
        bn.eval()
        x = randn(5, 3, 2, 2, seed=9)
        shape = (1, 3, 1, 1)
        expected = (x - bn.running_mean.reshape(shape)) / np.sqrt(
            bn.running_var.reshape(shape) + bn.eps
        ) * bn.weight.data.reshape(shape) + bn.bias.data.reshape(shape)
        assert np.allclose(bn(Tensor(x)).data, expected, rtol=1e-5, atol=1e-6)

    def test_eval_gradients_reach_input_and_parameters(self):
        bn = BatchNorm1d(3)
        bn(Tensor(randn(8, 3)))
        bn.eval()
        proj = Tensor(randn(4, 3, seed=1))
        gradcheck(lambda t: bn(t) * proj, randn(4, 3, seed=2))
        bn.zero_grad()
        (bn(Tensor(randn(4, 3, seed=2))) * proj).sum().backward()
        assert bn.weight.grad is not None and bn.bias.grad is not None
