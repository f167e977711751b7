"""Learning-rate schedules: multi-step decay with linear warmup.

The paper keeps each model's original regime ("we do not change the base
learning rate and the number of epochs", §V-C): the ImageNet recipe is
linear warmup + step decay (Goyal et al.) and CIFAR uses multi-step; the
trainer builds warmup + multi-step.
"""

from __future__ import annotations

from typing import Sequence

from .optim import Optimizer

__all__ = [
    "LRScheduler",
    "MultiStepLR",
    "WarmupWrapper",
]


class LRScheduler:
    """Base: computes lr as a function of epoch and writes it to the optimiser."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = -1

    def get_lr(self, epoch: int) -> float:
        """Learning rate for the given epoch."""
        raise NotImplementedError

    def step(self, epoch: int | None = None) -> float:
        """Advance to ``epoch`` (default: next) and apply the new lr."""
        self.last_epoch = self.last_epoch + 1 if epoch is None else int(epoch)
        lr = self.get_lr(self.last_epoch)
        if lr < 0:
            raise ValueError(f"schedule produced negative lr {lr} at epoch {self.last_epoch}")
        self.optimizer.lr = lr
        return lr


class MultiStepLR(LRScheduler):
    """Multiply lr by ``gamma`` at each milestone epoch (the 30/60/80 recipe)."""

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int], gamma: float = 0.1):
        super().__init__(optimizer)
        self.milestones = sorted(milestones)
        if any(m < 0 for m in self.milestones):
            raise ValueError(f"milestones must be non-negative, got {milestones}")
        self.gamma = gamma

    def get_lr(self, epoch: int) -> float:
        """Learning rate for the given epoch."""
        passed = sum(1 for m in self.milestones if epoch >= m)
        return self.base_lr * self.gamma**passed


class WarmupWrapper(LRScheduler):
    """Linear warmup from ``base_lr / warmup_epochs`` to the wrapped
    schedule's lr (gradual warmup of Goyal et al. for large minibatches)."""

    def __init__(self, schedule: LRScheduler, warmup_epochs: int):
        super().__init__(schedule.optimizer)
        if warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {warmup_epochs}")
        self.schedule = schedule
        self.warmup_epochs = warmup_epochs

    def get_lr(self, epoch: int) -> float:
        """Learning rate for the given epoch."""
        target = self.schedule.get_lr(epoch)
        if self.warmup_epochs == 0 or epoch >= self.warmup_epochs:
            return target
        return target * (epoch + 1) / self.warmup_epochs
