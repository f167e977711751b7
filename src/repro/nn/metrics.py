"""Classification metrics: top-k accuracy, running average."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["topk_accuracy", "accuracy", "RunningAverage"]


def _logits_array(logits) -> np.ndarray:
    return logits.data if isinstance(logits, Tensor) else np.asarray(logits)


def topk_accuracy(logits, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose true label is among the top-k logits.

    The paper reports top-1 validation accuracy throughout; top-5 is the
    usual companion for ImageNet-style tables.
    """
    scores = _logits_array(logits)
    labels = np.asarray(labels)
    if scores.ndim != 2:
        raise ValueError(f"expected (N, C) logits, got shape {scores.shape}")
    if k < 1 or k > scores.shape[1]:
        raise ValueError(f"k={k} invalid for {scores.shape[1]} classes")
    if len(labels) != scores.shape[0]:
        raise ValueError(f"{scores.shape[0]} rows vs {len(labels)} labels")
    if k == 1:
        return float((scores.argmax(axis=1) == labels).mean())
    topk = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    return float((topk == labels[:, None]).any(axis=1).mean())


def accuracy(logits, labels: np.ndarray) -> float:
    """Top-1 accuracy."""
    return topk_accuracy(logits, labels, k=1)


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
