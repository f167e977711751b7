"""Core layers: Linear, Conv2d, global average pooling, ReLU, Sequential."""

from __future__ import annotations

import numpy as np

from . import functional as F
from repro.utils.rng import default_rng

from .init import kaiming_uniform
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Conv2d",
    "GlobalAvgPool2d",
    "ReLU",
    "Sequential",
]


class Linear(Module):
    """Affine map ``y = x W^T + b`` with Kaiming-initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size), rng=rng)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class GlobalAvgPool2d(Module):
    """Mean over spatial dims: (N,C,H,W) -> (N,C)."""

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        return x.mean(axis=(2, 3))


class ReLU(Module):
    """Elementwise max(x, 0) module."""
    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        return x.relu()


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        for layer in self.layers:
            x = layer(x)
        return x
