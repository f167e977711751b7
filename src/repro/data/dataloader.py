"""Mini-batch iterator mirroring ``torch.utils.data.DataLoader``.

Supports ``batch_size``, ``shuffle`` / explicit ``sampler`` and
``drop_last``.  :func:`default_collate` stacks NumPy samples into a
``(B, ...)`` batch array and labels into a 1-D array — the layout the
``repro.nn`` framework consumes.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from .dataset import Dataset
from .sampler import RandomSampler, Sampler

__all__ = ["DataLoader", "default_collate"]


def default_collate(samples: Sequence[tuple[Any, Any]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack ``[(x, y), ...]`` into ``(X, y)`` batch arrays."""
    if not samples:
        raise ValueError("cannot collate an empty batch")
    xs = np.stack([np.asarray(x) for x, _ in samples])
    ys = np.asarray([y for _, y in samples])
    return xs, ys


class DataLoader:
    """Iterate ``dataset`` in batches following ``sampler`` order.

    Parameters
    ----------
    dataset:
        Map-style dataset.
    batch_size:
        Samples per batch (the paper's per-worker ``b``).
    shuffle:
        Convenience flag building a :class:`RandomSampler`; mutually
        exclusive with an explicit ``sampler``.  With neither, batches
        follow index order.
    sampler:
        Explicit index sampler (e.g. :class:`DistributedSampler`).
    drop_last:
        Drop the final short batch.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 1,
        *,
        shuffle: bool = False,
        sampler: Sampler | None = None,
        drop_last: bool = False,
        seed: int = 0,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if shuffle and sampler is not None:
            raise ValueError("pass either shuffle=True or an explicit sampler, not both")
        self.dataset = dataset
        self.batch_size = batch_size
        self.drop_last = drop_last
        if sampler is None:
            sampler = RandomSampler(dataset, seed=seed) if shuffle else range(len(dataset))
        self.sampler = sampler

    def __iter__(self) -> Iterator[Any]:
        batch: list[tuple[Any, Any]] = []
        for idx in self.sampler:
            batch.append(self.dataset[idx])
            if len(batch) == self.batch_size:
                yield default_collate(batch)
                batch = []
        if batch and not self.drop_last:
            yield default_collate(batch)

    def __len__(self) -> int:
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return -(-n // self.batch_size)
