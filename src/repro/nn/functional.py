"""Functional ops: stable log-softmax/losses, patch-gather convolution, pooling.

Convolution and pooling implement custom backward closures rather than
being composed from primitives — the composite graph would be orders of
magnitude slower, and these are the hot path of every accuracy experiment.
Both read their windows through one channels-last gather (``im2col``);
convolution uses it again for its input gradient, pooling scatters back
with ``col2im``.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "one_hot",
    "conv2d",
    "max_pool2d",
    "im2col",
    "col2im",
]


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(denom)
    out = x._make(out_data, (x,), "log_softmax")
    if out.requires_grad:
        softmax_data = exp / denom

        def backward(g: np.ndarray) -> None:
            x._push(g - softmax_data * g.sum(axis=axis, keepdims=True))

        out._backward = backward
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels -> one-hot float32 matrix."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels out of range [0,{num_classes}): min={labels.min()}, max={labels.max()}"
        )
    eye = np.zeros((labels.size, num_classes), dtype=np.float32)
    eye[np.arange(labels.size), labels.ravel()] = 1.0
    return eye.reshape(*labels.shape, num_classes)


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``log_probs``."""
    labels = np.asarray(labels)
    n = log_probs.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"batch mismatch: {n} logits rows vs {labels.shape[0]} labels")
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def cross_entropy(
    logits: Tensor, labels: np.ndarray, *, label_smoothing: float = 0.0
) -> Tensor:
    """Mean cross-entropy from raw logits (fused stable path).

    ``label_smoothing`` mixes the one-hot target with the uniform
    distribution (the large-batch ImageNet recipes use 0.1).
    """
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError(f"label_smoothing must be in [0,1), got {label_smoothing}")
    log_probs = log_softmax(logits, axis=-1)
    if label_smoothing == 0.0:
        return nll_loss(log_probs, labels)
    labels = np.asarray(labels)
    n, c = log_probs.shape
    if labels.shape[0] != n:
        raise ValueError(f"batch mismatch: {n} logits rows vs {labels.shape[0]} labels")
    target = one_hot(labels, c) * (1.0 - label_smoothing) + label_smoothing / c
    return -(log_probs * Tensor(target)).sum(axis=-1).mean()


# --------------------------------------------------------------------- conv2d
def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _place(count: int, offset: int, step: int, size: int) -> tuple[slice, slice]:
    """Source / destination slices putting item ``i`` of ``count`` at
    ``offset + i * step``, keeping only what lands in ``[0, size)``."""
    lo = max(0, -(offset // step))
    hi = max(lo, min(count, (size - 1 - offset) // step + 1))
    return slice(lo, hi), slice(offset + lo * step, offset + hi * step, step)


def _patches(
    x: np.ndarray, kh: int, kw: int, stride: int, top: int, left: int, oh: int, ow: int,
    step: int = 1,
) -> np.ndarray:
    """The one gather: (N,C,H,W) -> (N*oh*ow, kh*kw*C) patch matrix.

    ``x`` is copied once into a zeroed channels-last buffer, ``step - 1``
    zeros between its pixels and zeros beyond its edges; row ``(n, i, j)``
    is the window whose corner sits ``(top, left)`` buffer pixels before
    ``x``'s first pixel plus ``(i, j) * stride``.  A window row is ``kw*C``
    contiguous floats, so materialising the matrix copies long runs.
    """
    n, c, h, w = x.shape
    buf = np.zeros((n, (oh - 1) * stride + kh, (ow - 1) * stride + kw, c), dtype=x.dtype)
    src_h, dst_h = _place(h, top, step, buf.shape[1])
    src_w, dst_w = _place(w, left, step, buf.shape[2])
    buf[:, dst_h, dst_w] = x[:, :, src_h, src_w].transpose(0, 2, 3, 1)
    sn, sh, sw, sc = buf.strides
    windows = np.lib.stride_tricks.as_strided(
        buf,
        shape=(n, oh, ow, kh, kw * c),
        strides=(sn, sh * stride, sw * stride, sh, sc),
        writeable=False,
    )
    return windows.reshape(n * oh * ow, kh * kw * c)


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """(N,C,H,W) -> (N*OH*OW, kh*kw*C) channels-last patch matrix, plus output dims."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    h, w = x.shape[2:]
    oh, ow = _out_size(h, kh, stride, padding), _out_size(w, kw, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel {kh}x{kw} stride {stride} padding {padding} too large for input {h}x{w}"
        )
    return _patches(x, kh, kw, stride, padding, padding, oh, ow), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add adjoint of :func:`im2col` (pooling's input gradient)."""
    n, c, h, w = x_shape
    oh, ow = _out_size(h, kh, stride, padding), _out_size(w, kw, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, kh, kw, c).transpose(3, 4, 0, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += cols6[i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation: x (N,C,H,W), weight (F,C,KH,KW) -> (N,F,OH,OW).

    Forward and input gradient are the same gather + one matmul: ``dx`` is
    the stride-1 correlation of the upstream gradient (zero-dilated by
    ``stride``) with the 180-degree-flipped kernel.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input/weight, got {x.shape}/{weight.shape}")
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"input channels {c} != weight channels {cw}")
    cols, oh, ow = im2col(x.data, kh, kw, stride, padding)
    out_data = cols @ weight.data.transpose(2, 3, 1, 0).reshape(-1, f)  # (N*OH*OW, F)
    if bias is not None:
        out_data = out_data + bias.data.reshape(f)
    out_data = out_data.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(np.ascontiguousarray(out_data), parents, "conv2d")
    if out.requires_grad:

        def backward(g: np.ndarray) -> None:
            if weight.requires_grad or weight._prev:
                gmat = g.transpose(0, 2, 3, 1).reshape(-1, f)  # (N*OH*OW, F)
                weight._push((cols.T @ gmat).reshape(kh, kw, c, f).transpose(3, 2, 0, 1))
            if bias is not None and (bias.requires_grad or bias._prev):
                bias._push(g.sum(axis=(0, 2, 3)).reshape(bias.shape))
            if x.requires_grad or x._prev:
                gcols = _patches(g, kh, kw, 1, kh - 1 - padding, kw - 1 - padding, h, w, stride)
                flipped = weight.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
                x._push((gcols @ flipped).reshape(n, h, w, c).transpose(0, 3, 1, 2))

        out._backward = backward
    return out


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over (kernel x kernel) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    cols, oh, ow = im2col(
        x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0
    )  # (N*C*OH*OW, K*K)
    argmax = cols.argmax(axis=1)
    out_data = cols[np.arange(cols.shape[0]), argmax].reshape(n, c, oh, ow)
    out = x._make(out_data, (x,), "max_pool2d")
    if out.requires_grad:

        def backward(g: np.ndarray) -> None:
            gcols = np.zeros_like(cols)
            gcols[np.arange(cols.shape[0]), argmax] = g.reshape(-1)
            gx = col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._push(gx.reshape(n, c, h, w))

        out._backward = backward
    return out
