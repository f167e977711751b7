"""Classification metrics: top-1 accuracy, running average."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["accuracy", "RunningAverage"]


def accuracy(logits, labels: np.ndarray) -> float:
    """Fraction of rows whose largest logit is the true label: the top-1
    validation accuracy the paper reports throughout."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    labels = np.asarray(labels)
    if scores.ndim != 2:
        raise ValueError(f"expected (N, C) logits, got shape {scores.shape}")
    if len(labels) != scores.shape[0]:
        raise ValueError(f"{scores.shape[0]} rows vs {len(labels)} labels")
    return float((scores.argmax(axis=1) == labels).mean())


class RunningAverage:
    """Weighted running mean (batch-size-weighted loss/accuracy averaging)."""

    def __init__(self) -> None:
        self.total = 0.0
        self.weight = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        """Add one observation with the given weight."""
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self.total += float(value) * weight
        self.weight += weight

    @property
    def value(self) -> float:
        """The weighted mean of all observations so far."""
        if self.weight == 0:
            raise ValueError("no observations recorded")
        return self.total / self.weight
