"""Samplers, including the ``DistributedSampler`` of Figure 3.

``DistributedSampler`` reproduces PyTorch's semantics: every epoch a global
permutation (seeded by ``seed + epoch``) is computed identically on all
ranks, padded to a multiple of the world size, and rank *r* takes every
``num_replicas``-th index starting at *r*.  Under global shuffling this is
exactly the paper's GS baseline; under local/partial-local shuffling the
sampler runs over the worker's *local* shard instead.
"""

from __future__ import annotations

from typing import Iterator, Sized

import numpy as np

__all__ = [
    "Sampler",
    "RandomSampler",
    "DistributedSampler",
]


class Sampler:
    """Abstract index sampler."""

    def __iter__(self) -> Iterator[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class RandomSampler(Sampler):
    """Without-replacement random permutation, reseeded per epoch.

    Call :meth:`set_epoch` before each epoch for a fresh but reproducible
    permutation (mirrors the paper's per-epoch reshuffle).
    """

    def __init__(self, data_source: Sized, *, seed: int = 0):
        self.data_source = data_source
        self.seed = seed
        self.epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Select the epoch-specific permutation."""
        self.epoch = int(epoch)

    def __iter__(self) -> Iterator[int]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.epoch]))
        return iter(rng.permutation(len(self.data_source)).tolist())

    def __len__(self) -> int:
        return len(self.data_source)


class DistributedSampler(Sampler):
    """Shard a dataset's indices across ``num_replicas`` ranks.

    Parameters
    ----------
    data_source:
        The dataset (only its length is used).
    num_replicas, rank:
        World size and this worker's rank.
    shuffle:
        If True, apply a seed+epoch global permutation before sharding
        (identical on all ranks); otherwise shard the natural order.
    drop_last:
        If True, drop the tail so every rank gets exactly
        ``floor(N / num_replicas)`` indices; otherwise pad by wrapping around
        so every rank gets ``ceil(N / num_replicas)``.
    """

    def __init__(
        self,
        data_source: Sized,
        num_replicas: int,
        rank: int,
        *,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = False,
    ):
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        if not 0 <= rank < num_replicas:
            raise ValueError(f"rank {rank} out of range [0, {num_replicas})")
        self.data_source = data_source
        self.num_replicas = num_replicas
        self.rank = rank
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.epoch = 0

        n = len(data_source)
        if self.drop_last:
            self.num_samples = n // num_replicas
        else:
            self.num_samples = -(-n // num_replicas)  # ceil
        self.total_size = self.num_samples * num_replicas

    def set_epoch(self, epoch: int) -> None:
        """Advance the shared permutation; must be called with the same value
        on every rank (exactly like ``torch.utils.data.DistributedSampler``)."""
        self.epoch = int(epoch)

    def _global_order(self) -> np.ndarray:
        n = len(self.data_source)
        if self.shuffle:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.epoch]))
            order = rng.permutation(n)
        else:
            order = np.arange(n)
        if self.drop_last:
            return order[: self.total_size]
        if self.total_size > n:
            # Wrap-around padding, as PyTorch does.
            pad = order[: self.total_size - n]
            order = np.concatenate([order, pad])
        return order

    def __iter__(self) -> Iterator[int]:
        order = self._global_order()
        return iter(order[self.rank :: self.num_replicas].tolist())

    def __len__(self) -> int:
        return self.num_samples
