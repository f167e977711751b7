"""Normalisation layers: BatchNorm and GroupNorm.

BatchNorm is central to the paper's story: "since batch normalization is
typically applied to the local mini-batch of each worker, the mean and the
variance for partial local shuffling would differ from the global shuffling
case" (§IV-A-1) — it is the suspected mechanism behind local shuffling's
accuracy degradation on small/skewed shards, and the paper explicitly
points at GroupNorm as the alternative that is robust to small per-worker
batches.  Both are implemented here so the ablation can be run.
"""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter
from .tensor import Tensor, _empty

__all__ = ["BatchNorm1d", "BatchNorm2d", "GroupNorm"]


class _Norm(Module):
    """What every layer here is: a per-channel affine over one fused standardise
    node.  They differ in the axes and in the shape the parameters broadcast from."""

    def __init__(self, channels: int, eps: float):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(channels))
        self.bias = Parameter(np.zeros(channels))

    def _normalize(self, x: Tensor, axes, param_shape):
        """One graph node: ``x`` standardised over ``axes`` (biased variance) times
        weight plus bias, both seen as ``param_shape`` (same rank as ``x``).
        Returns the node and the batch mean and variance (``keepdims``)."""
        weight, bias = self.weight, self.bias
        shape = x.shape
        mean = x.data.mean(axis=axes, keepdims=True)
        x_hat = np.subtract(x.data, mean, out=_empty(shape, np.result_type(x.data, mean)))
        var = np.square(x_hat, out=_empty(shape, x_hat.dtype)).mean(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        w = weight.data.reshape(param_shape)
        out_data = np.multiply(x_hat, w, out=_empty(shape, np.result_type(x_hat, w)))
        out_data += bias.data.reshape(param_shape)
        out = x._make(out_data, (x, weight, bias), "normalize")
        if out.requires_grad:
            xn, wn, bn = out._node.parents
            param_axes = tuple(i for i, s in enumerate(param_shape) if s == 1)

            def backward(g: np.ndarray) -> None:
                scratch = _empty(shape, g.dtype)
                if bn is not None:
                    bn.push(g.sum(axis=param_axes).reshape(-1))
                if wn is not None:
                    np.multiply(g, x_hat, out=scratch)
                    wn.push(scratch.sum(axis=param_axes).reshape(-1))
                if xn is not None:
                    # gx = inv_std * (gh - mean(gh) - x_hat * mean(gh * x_hat)), gh = g * w,
                    # written over gh once both means are taken
                    gx = np.multiply(g, w, out=_empty(shape, g.dtype))
                    np.multiply(gx, x_hat, out=scratch)
                    mean_gh_x_hat = scratch.mean(axis=axes, keepdims=True)
                    gx -= gx.mean(axis=axes, keepdims=True)
                    np.multiply(x_hat, mean_gh_x_hat, out=scratch)
                    gx -= scratch
                    gx *= inv_std
                    xn.push(gx, fresh=True)

            out._node.backward = backward
        return out, mean, var


class _BatchNormBase(_Norm):
    _axes: tuple[int, ...]  # what statistics are taken over: every axis but the channel one

    def __init__(self, num_features: int, *, eps: float = 1e-5, momentum: float = 0.1):
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        super().__init__(num_features, eps)
        self.num_features = num_features
        self.momentum = momentum
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        name, ndim = type(self).__name__, len(self._axes) + 1
        if x.ndim != ndim or x.shape[1] != self.num_features:
            raise ValueError(f"{name} expects {ndim}-D (N,{self.num_features},...), got {x.shape}")
        shape = (1, self.num_features) + (1,) * (ndim - 2)
        if not self.training:
            # Running stats and affine folded into one per-channel multiply-add.
            scale = self.weight * Tensor(1.0 / np.sqrt(self.running_var + self.eps))
            shift = self.bias - Tensor(self.running_mean) * scale
            return x * scale.reshape(shape) + shift.reshape(shape)
        n = x.size // self.num_features
        if n < 2:
            raise ValueError(f"{name} requires more than one value per channel in training mode")
        out, mean, var = self._normalize(x, self._axes, shape)
        # Update running statistics outside the graph (unbiased variance).
        for running, batch in ((self.running_mean, mean), (self.running_var, var * (n / (n - 1)))):
            running[...] = (1 - self.momentum) * running + self.momentum * batch.reshape(-1)
        return out


class BatchNorm1d(_BatchNormBase):
    """BatchNorm over (N, C) feature batches."""

    _axes = (0,)


class BatchNorm2d(_BatchNormBase):
    """BatchNorm over (N, C, H, W) image batches (per-channel statistics)."""

    _axes = (0, 2, 3)


class GroupNorm(_Norm):
    """Group normalisation (Wu & He) — batch-size independent, the paper's
    suggested remedy for small per-worker batches (§IV-A-1)."""

    def __init__(self, num_groups: int, num_channels: int, *, eps: float = 1e-5):
        if num_channels % num_groups != 0:
            raise ValueError(f"{num_channels} channels not divisible into {num_groups} groups")
        super().__init__(num_channels, eps)
        self.num_groups = num_groups
        self.num_channels = num_channels

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        if x.ndim not in (2, 4) or x.shape[1] != self.num_channels:
            raise ValueError(
                f"GroupNorm expects (N,{self.num_channels},...) with 2 or 4 dims, got {x.shape}"
            )
        # Statistics per (sample, group), affine per channel.
        view = (x.shape[0], self.num_groups, self.num_channels // self.num_groups, -1)
        return self._normalize(x.reshape(view), (2, 3), (1, *view[1:3], 1))[0].reshape(x.shape)
