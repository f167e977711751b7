"""Synthetic dataset generators standing in for the paper's datasets.

The offline environment has none of ImageNet-1K/21K, CIFAR-100, Stanford
Cars or DeepCAM (140 GB - 8.2 TB).  What the shuffling experiments actually
exercise is: the number of samples per worker, the number of classes, how
classes are spread across worker shards, and sample diversity.  All of that
is captured by parameterised Gaussian-mixture classification problems:

* each class has a prototype direction in feature space plus several
  intra-class "modes" (sub-clusters), so a worker that only ever sees part
  of a class's modes generalises worse — the diversity effect the paper
  attributes to sample exchange;
* class separation and noise control the achievable accuracy ceiling so
  curves saturate like the paper's (not at 100%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TensorDataset

__all__ = [
    "SyntheticSpec",
    "make_classification",
    "train_val_split",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic classification problem."""

    n_samples: int
    n_classes: int
    n_features: int = 32
    intra_modes: int = 4  # sub-clusters per class (sample-diversity knob)
    separation: float = 2.0  # distance between class prototypes
    mode_spread: float = 1.0  # distance between modes within a class
    noise: float = 1.0  # per-sample Gaussian noise
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < self.n_classes:
            raise ValueError(
                f"need at least one sample per class: {self.n_samples} < {self.n_classes}"
            )
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.intra_modes < 1:
            raise ValueError(f"intra_modes must be >= 1, got {self.intra_modes}")


def make_classification(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``(X, y)`` from the Gaussian-mixture model described above.

    Labels are balanced (up to rounding) and the rows arrive grouped by
    class/mode; shuffle or partition downstream as the experiment requires.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    # Class prototypes: random orthogonal-ish directions scaled by separation.
    protos = rng.normal(0.0, 1.0, size=(spec.n_classes, spec.n_features))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    protos *= spec.separation
    # Intra-class modes around each prototype.
    modes = protos[:, None, :] + rng.normal(
        0.0, spec.mode_spread, size=(spec.n_classes, spec.intra_modes, spec.n_features)
    )

    per_class = np.full(spec.n_classes, spec.n_samples // spec.n_classes)
    per_class[: spec.n_samples % spec.n_classes] += 1

    xs, ys = [], []
    for c in range(spec.n_classes):
        n_c = int(per_class[c])
        mode_ids = rng.integers(0, spec.intra_modes, size=n_c)
        centers = modes[c, mode_ids]
        xs.append(centers + rng.normal(0.0, spec.noise, size=(n_c, spec.n_features)))
        ys.append(np.full(n_c, c, dtype=np.int64))
    X = np.concatenate(xs).astype(np.float32)
    y = np.concatenate(ys)
    return X, y


def train_val_split(
    X: np.ndarray,
    y: np.ndarray,
    *,
    val_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[TensorDataset, TensorDataset]:
    """Shuffle and split into train/validation datasets (the paper uses an
    80/20 split, §V-B)."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0,1), got {val_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5917]))
    order = rng.permutation(len(X))
    n_val = max(1, int(round(len(X) * val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    return (
        TensorDataset(X[train_idx], y[train_idx]),
        TensorDataset(X[val_idx], y[val_idx]),
    )
