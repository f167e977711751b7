"""Label smoothing."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.gradcheck import gradcheck


class TestLabelSmoothing:
    def test_zero_smoothing_matches_plain(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 3)).astype(np.float32)
        labels = np.array([0, 1, 2, 0])
        a = F.cross_entropy(Tensor(logits), labels)
        b = F.cross_entropy(Tensor(logits), labels, label_smoothing=0.0)
        assert a.item() == pytest.approx(b.item())

    def test_smoothing_increases_loss_on_confident_predictions(self):
        logits = np.eye(3, dtype=np.float32) * 20
        labels = np.arange(3)
        plain = F.cross_entropy(Tensor(logits), labels).item()
        smooth = F.cross_entropy(Tensor(logits), labels, label_smoothing=0.1).item()
        assert smooth > plain

    def test_smoothing_grad(self):
        labels = np.array([0, 2, 1])
        rng = np.random.default_rng(1)
        gradcheck(
            lambda t: F.cross_entropy(t, labels, label_smoothing=0.1),
            rng.normal(size=(3, 4)),
        )

    def test_validation(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([0, 1]), label_smoothing=1.0)
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([0]), label_smoothing=0.1)
