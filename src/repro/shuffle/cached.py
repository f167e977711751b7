"""Uncontrolled-cache baseline: the related-work comparator (§VI-A).

DeepIO [16] and Yang & Cong [17] also keep part of the data local and
fetch the rest, but — as the paper points out — "the local sampler
introduces uncontrolled bias since the ratio of global to local shuffle
portion is unidentified (i.e. the split is itself random).  Since the
exchange is uncontrolled, arbitrary communication bottlenecks can occur."

:class:`UncontrolledCachedShuffle` models that family: each epoch every
worker independently decides, per cached sample, whether to replace it
with a fresh sample fetched from shared storage — with a *random* per-epoch
refresh ratio instead of PLS's fixed Q, and with no coordination between
workers.  It exists so the ablation benchmarks can quantify what PLS's two
design choices (controlled ratio, balanced seed-synchronised exchange) buy:
predictable traffic and zero per-worker imbalance.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.data.sampler import RandomSampler
from repro.mpi.communicator import Communicator
from repro.utils.rng import SeedTree

from .base import ShuffleStrategy
from .local import _epoch_seed
from .storage import StorageArea

__all__ = ["UncontrolledCachedShuffle"]


class UncontrolledCachedShuffle(ShuffleStrategy):
    """Cache-with-random-refresh baseline (uncontrolled locality).

    Parameters
    ----------
    mean_refresh:
        Expected fraction of the cache replaced per epoch.  The *actual*
        per-epoch, per-worker fraction is drawn uniformly from
        ``[0, 2*mean_refresh]`` — the "unidentified split" of the related
        work.  Replacements are fetched from the full dataset (a remote
        read), so per-worker traffic fluctuates freely.
    """

    def __init__(self, mean_refresh: float = 0.3):
        super().__init__()
        if not 0.0 <= mean_refresh <= 0.5:
            raise ValueError(
                f"mean_refresh must be in [0, 0.5] so the ratio stays a "
                f"fraction, got {mean_refresh}"
            )
        self.mean_refresh = mean_refresh
        self.name = f"cached-{mean_refresh:g}"
        self.storage = StorageArea()
        self.dataset: Dataset | None = None
        self._tree: SeedTree | None = None
        self.per_epoch_refreshes: list[int] = []

    def setup(
        self,
        comm: Communicator,
        dataset: Dataset,
        *,
        labels: np.ndarray | None = None,
        partition: str = "random",
        seed: int = 0,
    ) -> None:
        """Stage this worker's initial data distribution."""
        self.comm = comm
        self.dataset = dataset  # remains reachable: the remote store
        self.seed = seed
        self._tree = SeedTree(seed)
        shard = self._shard_indices(
            dataset, comm, labels=labels, partition=partition, seed=seed
        )
        self.storage.add_many((*dataset[int(idx)], None) for idx in shard)

    def begin_epoch(self, epoch: int) -> None:
        """Refresh a random, *uncontrolled* fraction of the cache."""
        if self.comm is None or self.dataset is None:
            raise RuntimeError("call setup() first")
        rng = self._tree.per_rank("cache-refresh", self.comm.rank, epoch)
        ratio = rng.uniform(0.0, 2.0 * self.mean_refresh)
        ids = self.storage.ids()
        n_refresh = int(round(ratio * len(ids)))
        victims = rng.choice(len(ids), size=n_refresh, replace=False)
        for v in victims:
            self.storage.remove(ids[int(v)])
        fresh = rng.integers(0, len(self.dataset), size=n_refresh)
        self.storage.add_many((*self.dataset[int(idx)], None) for idx in fresh)
        self.remote_reads += n_refresh
        self.per_epoch_refreshes.append(n_refresh)

    def epoch_loader(self, epoch: int, batch_size: int) -> DataLoader:
        """Batches this worker trains on during the epoch."""
        view = self.storage.as_dataset()
        sampler = RandomSampler(view, seed=_epoch_seed(self._tree, self.comm.rank))
        sampler.set_epoch(epoch)
        drop_last = len(view) >= batch_size
        loader = DataLoader(view, batch_size, sampler=sampler, drop_last=drop_last)
        self.local_reads += len(loader) * batch_size if drop_last else len(view)
        return loader

    def storage_samples(self) -> int:
        """Peak number of samples this worker must store."""
        return max(len(self.storage), self.storage.peak_count)

    def stats(self) -> dict:
        """Accounting snapshot for benchmarks."""
        out = super().stats()
        refreshes = self.per_epoch_refreshes
        out.update(
            refresh_counts=list(refreshes),
            refresh_std=float(np.std(refreshes)) if refreshes else 0.0,
        )
        return out
