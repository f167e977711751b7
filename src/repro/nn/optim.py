"""Optimisers: SGD with momentum/weight-decay, and LARS.

The paper's training configuration (§V-C) uses the original recipes
(momentum SGD per Goyal et al.) and switches to LARS (You et al.) for
large-scale runs (>512 workers for ResNet50) — both are provided so the
strong-scaling experiments can follow the same regime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import FlatParameters, Parameter, flat_views

__all__ = ["Optimizer", "SGD", "LARS"]


class Optimizer:
    """Base optimiser over a flat list of parameters."""

    def __init__(self, params: Sequence[Parameter], lr: float):
        #: The model's flat layout when ``params`` is ``model.flatten()``.
        self._flat = params if isinstance(params, FlatParameters) else None
        params = list(params)
        if not params:
            raise ValueError("optimiser got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.params = params
        self.lr = lr

    def _momentum_groups(self, momentum: float) -> tuple[list, list]:
        """``(per-parameter momentum, (owner, momentum) groups)``: what a
        checkpoint stores, and what an elementwise update walks — ``owner``
        is anything with ``data`` and ``grad``: the flat model as one group,
        or each parameter of a bare list.  Momentum is zeroed views of one
        flat array, or ``None`` throughout when there is none."""
        owners = self.params if self._flat is None else [self._flat]
        if not momentum:
            return [None] * len(self.params), [(g, None) for g in owners]
        flat, views = flat_views([p.data for p in self.params])
        return views, list(zip(owners, views if self._flat is None else [flat]))

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update using the current gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with (optionally Nesterov) momentum and decoupled-from-nothing
    classic L2 weight decay (added to the gradient, as in the ImageNet
    recipes the paper follows)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        #: ``_velocity`` is per parameter: what a checkpoint stores.
        self._velocity, self._groups = self._momentum_groups(momentum)

    def step(self) -> None:
        """Apply one update using the current gradients."""
        for g, v in self._groups:
            grad = g.grad
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * g.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = grad + self.momentum * v if self.nesterov else v
            g.data -= self.lr * grad


class LARS(Optimizer):
    """Layer-wise Adaptive Rate Scaling (You, Gitman & Ginsburg, 2017).

    Each parameter's update is rescaled by the trust ratio
    ``eta * ||w|| / (||g|| + wd * ||w||)`` so large-batch training stays
    stable — the regime of the paper's 2,048-4,096-worker runs.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        *,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        trust_coefficient: float = 0.001,
        eps: float = 1e-9,
    ):
        super().__init__(params, lr)
        if trust_coefficient <= 0:
            raise ValueError(f"trust_coefficient must be > 0, got {trust_coefficient}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.trust_coefficient = trust_coefficient
        self.eps = eps
        # Layer-wise, so the update walks parameters either way.
        self._velocity = self._momentum_groups(momentum)[0]

    def step(self) -> None:
        """Apply one update using the current gradients."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            w_norm = float(np.linalg.norm(p.data))
            g_norm = float(np.linalg.norm(grad))
            if w_norm > 0 and g_norm > 0:
                trust = self.trust_coefficient * w_norm / (g_norm + self.eps)
            else:
                trust = 1.0
            update = trust * grad
            if self.momentum:
                v = self._velocity[i]
                v *= self.momentum
                v += update
                update = v
            p.data -= self.lr * update
