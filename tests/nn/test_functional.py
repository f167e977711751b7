import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.gradcheck import gradcheck


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestSoftmaxLosses:
    def test_log_softmax_rows_normalise(self):
        out = F.log_softmax(Tensor(randn(4, 6).astype(np.float32)))
        probs = np.exp(out.data)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_log_softmax_stability_large_logits(self):
        out = F.log_softmax(Tensor(np.array([[1000.0, 0.0]], dtype=np.float32)))
        assert np.isfinite(out.data).all()

    def test_log_softmax_grad(self):
        gradcheck(lambda t: F.log_softmax(t), randn(3, 5))

    def test_cross_entropy_matches_manual(self):
        logits = randn(4, 3).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        loss = F.cross_entropy(Tensor(logits), labels)
        probs = np.exp(logits - logits.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        manual = -np.log(probs[np.arange(4), labels]).mean()
        assert loss.item() == pytest.approx(manual, rel=1e-4)

    def test_cross_entropy_grad(self):
        labels = np.array([0, 2, 1])
        gradcheck(lambda t: F.cross_entropy(t, labels), randn(3, 4))

    def test_cross_entropy_perfect_prediction_low_loss(self):
        logits = np.eye(3, dtype=np.float32) * 20
        loss = F.cross_entropy(Tensor(logits), np.arange(3))
        assert loss.item() < 1e-3

    def test_nll_batch_mismatch(self):
        with pytest.raises(ValueError):
            F.nll_loss(Tensor(randn(3, 4).astype(np.float32)), np.zeros(2, dtype=int))


class TestConv:
    def test_conv_shape(self):
        x = Tensor(randn(2, 3, 8, 8).astype(np.float32))
        w = Tensor(randn(5, 3, 3, 3, seed=1).astype(np.float32))
        assert F.conv2d(x, w, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w).shape == (2, 5, 6, 6)

    def test_conv_matches_naive(self):
        x = randn(1, 2, 5, 5).astype(np.float32)
        w = randn(3, 2, 3, 3, seed=1).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w)).data
        # Naive reference.
        ref = np.zeros((1, 3, 3, 3), dtype=np.float32)
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, f, i, j] = (x[0, :, i : i + 3, j : j + 3] * w[f]).sum()
        assert np.allclose(out, ref, atol=1e-4)

    def test_conv_input_grad(self):
        w = Tensor(randn(2, 3, 3, 3, seed=1).astype(np.float32))
        gradcheck(lambda t: F.conv2d(t, w, padding=1), randn(2, 3, 5, 5))

    def test_conv_weight_grad(self):
        x = Tensor(randn(2, 3, 5, 5).astype(np.float32))
        w = Tensor(randn(2, 3, 3, 3, seed=1).astype(np.float32), requires_grad=True)
        F.conv2d(x, w, padding=1).sum().backward()
        assert w.grad.shape == w.shape

    def test_conv_channel_mismatch(self):
        with pytest.raises(ValueError):
            F.conv2d(
                Tensor(randn(1, 3, 5, 5).astype(np.float32)),
                Tensor(randn(2, 4, 3, 3).astype(np.float32)),
            )

    def test_conv_kernel_too_large(self):
        with pytest.raises(ValueError):
            F.conv2d(
                Tensor(randn(1, 1, 2, 2).astype(np.float32)),
                Tensor(randn(1, 1, 5, 5).astype(np.float32)),
            )


def conv_loops(x, w, g, padding):
    """Nested-loop conv2d: the output, then the x / weight gradients under the
    upstream gradient ``g``.  Float64, no vectorisation: the reference."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh, ow = h + 2 * padding - kh + 1, wd + 2 * padding - kw + 1
    out = np.zeros((n, f, oh, ow))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(n):
        for o in range(f):
            for r in range(oh):
                for s in range(ow):
                    window = xp[i, :, r : r + kh, s : s + kw]
                    out[i, o, r, s] = (window * w[o]).sum()
                    gxp[i, :, r : r + kh, s : s + kw] += g[i, o, r, s] * w[o]
                    gw[o] += g[i, o, r, s] * window
    return out, gxp[:, :, padding : padding + h, padding : padding + wd], gw


class TestConvAgainstLoops:
    """conv2d's gather-form forward and input gradient against plain loops."""

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_forward_and_both_gradients(self, kernel, padding):
        rng = np.random.default_rng(kernel * 100 + padding)
        x = rng.normal(size=(2, 3, 7, 10))  # odd, non-square
        w = rng.normal(size=(4, 3, kernel, kernel))
        tx, tw = (Tensor(a.copy(), requires_grad=True) for a in (x, w))
        out = F.conv2d(tx, tw, padding=padding)
        g = rng.normal(size=out.shape)
        out.backward(g)
        ref_out, ref_gx, ref_gw = conv_loops(x, w, g, padding)
        assert out.data.flags.c_contiguous
        for got, ref in ((out.data, ref_out), (tx.grad, ref_gx), (tw.grad, ref_gw)):
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_non_square_kernel(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(1, 2, 6, 9)), rng.normal(size=(3, 2, 1, 4))
        tx, tw = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        out = F.conv2d(tx, tw, padding=1)
        g = rng.normal(size=out.shape)
        out.backward(g)
        ref_out, ref_gx, ref_gw = conv_loops(x, w, g, 1)
        assert np.allclose(out.data, ref_out, atol=1e-10)
        assert np.allclose(tx.grad, ref_gx, atol=1e-10)
        assert np.allclose(tw.grad, ref_gw, atol=1e-10)

    def test_bad_padding_names_the_argument(self):
        x = Tensor(randn(1, 1, 4, 4).astype(np.float32))
        w = Tensor(randn(1, 1, 3, 3).astype(np.float32))
        with pytest.raises(ValueError, match="padding"):
            F.conv2d(x, w, padding=-1)


class TestIm2col:
    def test_roundtrip_shapes(self):
        x = randn(2, 3, 6, 6)
        cols, oh, ow = F.im2col(x, 3, 3, 1)
        assert cols.shape == (2 * 6 * 6, 3 * 9)
        assert (oh, ow) == (6, 6)
