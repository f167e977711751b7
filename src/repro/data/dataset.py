"""Dataset primitives mirroring ``torch.utils.data``.

The paper deliberately builds on PyTorch's two data primitives — a
``Dataset`` storing samples+labels and a ``DataLoader`` iterating batches —
so its shuffling layer drops into existing scripts with six changed lines
(Figure 3).  We reproduce that API surface over NumPy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "Dataset",
    "TensorDataset",
]


class Dataset:
    """Abstract map-style dataset: index -> ``(sample, label)``."""

    def __getitem__(self, index: int) -> tuple[Any, Any]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class TensorDataset(Dataset):
    """In-memory dataset over parallel arrays ``(features, labels)``."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features)
        labels = np.asarray(labels)
        if len(features) != len(labels):
            raise ValueError(
                f"features ({len(features)}) and labels ({len(labels)}) length mismatch"
            )
        self.features = features
        self.labels = labels

    def __getitem__(self, index: int) -> tuple[np.ndarray, Any]:
        if not -len(self) <= index < len(self):
            raise IndexError(f"index {index} out of range for dataset of {len(self)}")
        return self.features[index], self.labels[index]

    def __len__(self) -> int:
        return len(self.features)
