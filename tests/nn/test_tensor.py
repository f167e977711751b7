import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, no_grad
from repro.nn.gradcheck import gradcheck


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def recording() -> bool:
    """Whether operations on this thread record the autograd graph."""
    return bool((Tensor([1.0], requires_grad=True) * 1.0)._prev)


class TestBasics:
    def test_creation_dtype(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float32
        assert t.shape == (3,)

    def test_item_and_shape(self):
        assert Tensor(3.5).item() == 3.5
        assert Tensor([1, 2]).shape == (2,)


class TestArithmeticGrads:
    def test_add(self):
        gradcheck(lambda t: t + 2.0, randn(3, 4))

    def test_mul(self):
        gradcheck(lambda t: t * t, randn(3, 4))

    def test_sub(self):
        gradcheck(lambda t: t - 3.0, randn(4))

    def test_pow(self):
        gradcheck(lambda t: (t * t + 1.0) ** 1.5, randn(4))

    def test_pow_non_scalar_rejected(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])  # type: ignore[operator]

    def test_neg(self):
        gradcheck(lambda t: -t, randn(3))

    def test_broadcast_add_grad(self):
        b = Tensor(randn(4, seed=1).astype(np.float32), requires_grad=True)
        x = Tensor(randn(3, 4).astype(np.float32))
        out = (x + b).sum()
        out.backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_matmul(self):
        W = Tensor(randn(4, 2, seed=5).astype(np.float32))
        gradcheck(lambda t: t @ W, randn(3, 4))

    def test_matmul_weight_grad(self):
        W = Tensor(randn(4, 2, seed=5).astype(np.float32), requires_grad=True)
        x = Tensor(randn(3, 4).astype(np.float32))
        (x @ W).sum().backward()
        assert W.grad.shape == (4, 2)
        assert np.allclose(W.grad, x.data.sum(axis=0)[:, None], atol=1e-5)


class TestReductionsAndViews:
    def test_sum_axis(self):
        gradcheck(lambda t: t.sum(axis=0), randn(3, 4))
        gradcheck(lambda t: t.sum(axis=1, keepdims=True), randn(3, 4))

    def test_mean(self):
        gradcheck(lambda t: t.mean(), randn(3, 4))
        gradcheck(lambda t: t.mean(axis=(0, 1)), randn(3, 4, 2))

    def test_reshape(self):
        gradcheck(lambda t: t.reshape(6, 2), randn(3, 4))
        gradcheck(lambda t: t.reshape(-1), randn(3, 4))

    def test_transpose(self):
        gradcheck(lambda t: t.T, randn(3, 4))
        gradcheck(lambda t: t.transpose(1, 0, 2), randn(2, 3, 4))

    def test_getitem(self):
        gradcheck(lambda t: t[1], randn(3, 4))
        gradcheck(lambda t: t[:, ::2], randn(3, 4))

    def test_getitem_fancy_accumulates(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        assert np.allclose(t.grad, [2.0, 0.0, 1.0])


class TestElementwise:
    def test_relu(self):
        x = randn(5, 5)
        x[np.abs(x) < 0.05] = 0.5  # keep away from the kink
        gradcheck(lambda t: t.relu(), x)

    def test_relu_values_have_no_negative_zero(self):
        out = Tensor(np.array([-2.0, -0.5, 0.0, 3.0], dtype=np.float32)).relu().data
        assert out.dtype == np.float32
        assert out.tolist() == [0.0, 0.0, 0.0, 3.0]
        assert not np.signbit(out).any()


class TestBackwardMechanics:
    def test_grad_accumulates_across_backwards(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 3).backward()
        (t * 3).backward()
        assert np.allclose(t.grad, [6.0])

    def test_diamond_graph(self):
        t = Tensor([3.0], requires_grad=True)
        a = t * 2
        b = t * 5
        (a + b).backward()
        assert np.allclose(t.grad, [7.0])

    def test_backward_shape_mismatch(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 1).backward(np.zeros(3))

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2 + 1
        assert out._prev == ()
        assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        """Rank threads validate at the same time: one sitting inside
        ``no_grad()`` must not switch recording off for the other, and
        interleaved exits must not leave it off for anyone."""
        import threading

        inside, may_leave = threading.Event(), threading.Event()
        seen = {}

        def validating():
            with no_grad():
                inside.set()
                assert may_leave.wait(timeout=10)
            seen["validating"] = recording()

        def training():
            assert inside.wait(timeout=10)
            t = Tensor([1.0, 2.0], requires_grad=True)
            (t * 3.0).sum().backward()
            seen["grad"] = t.grad
            may_leave.set()
            seen["training"] = recording()

        threads = [threading.Thread(target=f) for f in (validating, training)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=20)
        assert not any(th.is_alive() for th in threads)
        assert np.array_equal(seen["grad"], [3.0, 3.0])
        assert seen["validating"] is True and seen["training"] is True
        assert recording()

    def test_non_requires_grad_builds_no_graph(self):
        out = Tensor([1.0]) * Tensor([2.0])
        assert out._prev == ()

    def test_interior_grads_freed(self):
        t = Tensor([1.0], requires_grad=True)
        mid = t * 2
        (mid * 3).backward()
        assert mid.grad is None  # interior freed
        assert t.grad is not None  # leaf retained

    def test_deep_chain_no_recursion_error(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0
        out.backward()  # iterative topo sort must survive deep graphs
        assert np.allclose(t.grad, [1.0])


@settings(max_examples=25, deadline=None)
@given(
    arr=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        elements=st.floats(-3, 3, allow_nan=False),
    )
)
def test_sum_grad_is_ones_property(arr):
    t = Tensor(arr.astype(np.float32), requires_grad=True)
    t.sum().backward()
    assert np.allclose(t.grad, np.ones_like(arr))
