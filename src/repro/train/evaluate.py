"""Model evaluation on a held-out validation set."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.metrics import RunningAverage, accuracy
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad

__all__ = ["evaluate"]


def evaluate(
    model: Module,
    X: np.ndarray,
    y: np.ndarray,
    *,
    batch_size: int = 256,
) -> tuple[float, float]:
    """Return ``(top-1 accuracy, mean loss)`` of ``model`` on ``(X, y)``.

    Switches the model to eval mode (BatchNorm running statistics) and back
    to its previous mode afterwards; no gradients are recorded.
    """
    if len(X) == 0:
        raise ValueError("empty validation set")
    was_training = model.training
    model.eval()
    acc = RunningAverage()
    loss_avg = RunningAverage()
    try:
        with no_grad():
            for start in range(0, len(X), batch_size):
                xb = X[start : start + batch_size]
                yb = y[start : start + batch_size]
                logits = model(Tensor(np.asarray(xb, dtype=np.float32)))
                acc.update(accuracy(logits, yb), weight=len(yb))
                loss_avg.update(F.cross_entropy(logits, yb).item(), weight=len(yb))
    finally:
        model.train(was_training)
    return acc.value, loss_avg.value
