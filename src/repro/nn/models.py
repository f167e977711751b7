"""Model zoo: scaled-down analogues of the paper's Table I architectures.

The paper trains ResNet50, DenseNet161, WideResNet-28-10, Inception-v4 and
DeepCAM.  The shuffling phenomena those runs expose depend on SGD +
normalisation behaviour rather than on 25M-parameter capacity, so the zoo
provides the same *families* at laptop scale:

* :class:`MLPClassifier` — dense + BatchNorm1d/GroupNorm (feature datasets)
* :class:`TinyResNet` — residual blocks with BatchNorm (the ResNet stand-in)

``build_model(name, ...)`` is the factory the experiment configs use; every
constructor takes an ``rng`` so all SPMD workers initialise identically.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import default_rng

from .layers import (
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
)
from .module import Module
from .norm import BatchNorm1d, BatchNorm2d, GroupNorm
from .tensor import Tensor

__all__ = ["MLPClassifier", "BasicBlock", "TinyResNet", "build_model", "MODEL_NAMES"]


def _norm1d(kind: str, width: int) -> Module:
    if kind == "batch":
        return BatchNorm1d(width)
    if kind == "group":
        return GroupNorm(min(8, width), width)
    raise ValueError(f"unknown norm kind {kind!r}")


def _norm2d(kind: str, channels: int) -> Module:
    if kind == "batch":
        return BatchNorm2d(channels)
    if kind == "group":
        return GroupNorm(min(8, channels), channels)
    raise ValueError(f"unknown norm kind {kind!r}")


class MLPClassifier(Module):
    """Dense classifier: [Linear -> Norm -> ReLU] x depth -> Linear head."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        *,
        hidden: int = 64,
        depth: int = 2,
        norm: str = "batch",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        rng = rng if rng is not None else default_rng()
        layers: list[Module] = []
        width_in = in_features
        for _ in range(depth):
            layers.append(Linear(width_in, hidden, rng=rng))
            layers.append(_norm1d(norm, hidden))
            layers.append(ReLU())
            width_in = hidden
        layers.append(Linear(width_in, num_classes, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        return self.net(x)


class BasicBlock(Module):
    """Residual block: Conv-Norm-ReLU-Conv-Norm (+skip) -> ReLU."""

    def __init__(
        self,
        channels: int,
        *,
        norm: str = "batch",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.conv1 = Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng)
        self.norm1 = _norm2d(norm, channels)
        self.conv2 = Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng)
        self.norm2 = _norm2d(norm, channels)

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        out = self.norm1(self.conv1(x)).relu()
        out = self.norm2(self.conv2(out))
        return (out + x).relu()


class TinyResNet(Module):
    """Stem conv + ``num_blocks`` residual blocks + GAP head."""

    def __init__(
        self,
        in_channels: int,
        num_classes: int,
        *,
        width: int = 16,
        num_blocks: int = 2,
        norm: str = "batch",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.stem = Sequential(
            Conv2d(in_channels, width, 3, padding=1, bias=False, rng=rng),
            _norm2d(norm, width),
            ReLU(),
        )
        self.blocks = Sequential(
            *[BasicBlock(width, norm=norm, rng=rng) for _ in range(num_blocks)]
        )
        self.head = Sequential(GlobalAvgPool2d(), Linear(width, num_classes, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        """Apply this module to the input."""
        return self.head(self.blocks(self.stem(x)))


MODEL_NAMES = (
    "mlp",
    "mlp_wide",
    "mlp_groupnorm",
    "resnet_tiny",
)


def build_model(
    name: str,
    *,
    in_shape: tuple[int, ...],
    num_classes: int,
    seed: int = 0,
    norm: str | None = None,
) -> Module:
    """Instantiate a zoo model by name.

    ``in_shape`` is the per-sample shape: ``(F,)`` for MLPs, ``(C, H, W)``
    for conv models.  ``norm`` overrides the family default ("batch").
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30DE1]))
    if name.startswith("mlp"):
        if len(in_shape) != 1:
            raise ValueError(f"{name} expects flat (F,) inputs, got {in_shape}")
        f = in_shape[0]
        kind = norm or ("group" if name == "mlp_groupnorm" else "batch")
        if name == "mlp":
            return MLPClassifier(f, num_classes, hidden=64, depth=2, norm=kind, rng=rng)
        if name == "mlp_wide":
            return MLPClassifier(f, num_classes, hidden=128, depth=2, norm=kind, rng=rng)
        if name == "mlp_groupnorm":
            return MLPClassifier(f, num_classes, hidden=64, depth=2, norm=kind, rng=rng)
    if name == "resnet_tiny":
        if len(in_shape) != 3:
            raise ValueError(f"{name} expects (C,H,W) inputs, got {in_shape}")
        kind = norm or "batch"
        return TinyResNet(in_shape[0], num_classes, width=16, num_blocks=2, norm=kind, rng=rng)
    raise ValueError(f"unknown model {name!r}; available: {MODEL_NAMES}")
