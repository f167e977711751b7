"""Functional ops: stable log-softmax/losses, patch-gather convolution.

Convolution implements a custom backward closure rather than being
composed from primitives — the composite graph would be orders of
magnitude slower, and it is the hot path of every accuracy experiment.
It reads its windows through one channels-last gather (``im2col``), and
uses it again for its input gradient.  Every activation-sized array it
makes comes from the current arena (see :mod:`repro.nn.tensor`).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _empty

__all__ = [
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "conv2d",
    "im2col",
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
        (xn,), softmax_data = out._node.parents, exp / denom
        out._node.backward = lambda g: xn.push(
            g - softmax_data * g.sum(axis=axis, keepdims=True)
        )
    return out


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``log_probs``."""
    labels = np.asarray(labels)
    n = log_probs.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"batch mismatch: {n} logits rows vs {labels.shape[0]} labels")
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy from raw logits (fused stable path)."""
    return nll_loss(log_softmax(logits, axis=-1), labels)


# --------------------------------------------------------------------- conv2d
def _place(count: int, offset: int, size: int) -> tuple[slice, slice]:
    """Source / destination slices putting item ``i`` of ``count`` at
    ``offset + i``, keeping only what lands in ``[0, size)``."""
    lo = max(0, -offset)
    hi = max(lo, min(count, size - offset))
    return slice(lo, hi), slice(offset + lo, offset + hi)


def _patches(
    x: np.ndarray, kh: int, kw: int, top: int, left: int, oh: int, ow: int
) -> np.ndarray:
    """The one gather: (N,C,H,W) -> (N*oh*ow, kh*kw*C) patch matrix.

    ``x`` is copied once into a channels-last buffer with zeros beyond
    its edges; row ``(n, i, j)`` is the window whose corner sits
    ``(top, left)`` buffer pixels before ``x``'s first pixel plus
    ``(i, j)``.  A window row is ``kw*C`` contiguous floats, so
    materialising the matrix copies long runs.
    """
    n, c, h, w = x.shape
    buf = _empty((n, oh - 1 + kh, ow - 1 + kw, c), x.dtype)
    src_h, dst_h = _place(h, top, buf.shape[1])
    src_w, dst_w = _place(w, left, buf.shape[2])
    buf[:, dst_h, dst_w] = x[:, :, src_h, src_w].transpose(0, 2, 3, 1)
    # Zero the frame around what was copied in (an arena array is not zeroed).
    buf[:, : dst_h.start] = buf[:, dst_h.stop :] = 0
    buf[:, dst_h, : dst_w.start] = buf[:, dst_h, dst_w.stop :] = 0
    sn, sh, sw, sc = buf.strides
    windows = np.lib.stride_tricks.as_strided(
        buf,
        shape=(n, oh, ow, kh, kw * c),
        strides=(sn, sh, sw, sh, sc),
        writeable=False,
    )
    cols = _empty((n * oh * ow, kh * kw * c), x.dtype)
    np.copyto(cols.reshape(windows.shape), windows)
    return cols


def im2col(x: np.ndarray, kh: int, kw: int, padding: int) -> tuple[np.ndarray, int, int]:
    """(N,C,H,W) -> (N*OH*OW, kh*kw*C) channels-last patch matrix, plus output dims."""
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    h, w = x.shape[2:]
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel {kh}x{kw} padding {padding} too large for input {h}x{w}"
        )
    return _patches(x, kh, kw, padding, padding, oh, ow), oh, ow


def conv2d(x: Tensor, weight: Tensor, *, padding: int = 0) -> Tensor:
    """2-D stride-1 cross-correlation, no bias: x (N,C,H,W), weight
    (F,C,KH,KW) -> (N,F,OH,OW).

    Forward and input gradient are the same gather + one matmul: ``dx`` is
    the correlation of the upstream gradient with the 180-degree-flipped
    kernel.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input/weight, got {x.shape}/{weight.shape}")
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"input channels {c} != weight channels {cw}")
    cols, oh, ow = im2col(x.data, kh, kw, padding)
    wmat = weight.data.transpose(2, 3, 1, 0).reshape(-1, f)
    gemm = _matmul(cols, wmat)  # (N*OH*OW, F)
    out_data = _empty((n, f, oh, ow), gemm.dtype)
    np.copyto(out_data, gemm.reshape(n, oh, ow, f).transpose(0, 3, 1, 2))

    out = x._make(out_data, (x, weight), "conv2d")
    if out.requires_grad:
        (xn, wn), wdata = out._node.parents, weight.data

        def backward(g: np.ndarray) -> None:
            nonlocal cols
            if wn is not None:
                gmat = _empty((n * oh * ow, f), g.dtype)
                np.copyto(gmat.reshape(n, oh, ow, f), g.transpose(0, 2, 3, 1))
                wn.push((cols.T @ gmat).reshape(kh, kw, c, f).transpose(3, 2, 0, 1))
                del gmat  # and its block, for ``dx``
            cols = None  # the gather below reuses its block
            if xn is not None:
                gcols = _patches(g, kh, kw, kh - 1 - padding, kw - 1 - padding, h, w)
                flipped = wdata[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
                xn.push(_matmul(gcols, flipped).reshape(n, h, w, c).transpose(0, 3, 1, 2))

        out._node.backward = backward
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, written into an arena array."""
    return np.matmul(a, b, out=_empty((a.shape[0], b.shape[1]), np.result_type(a, b)))
